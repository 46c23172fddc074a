//go:build race

package core

// raceEnabled reports that this binary was built with the race detector,
// whose runtime instrumentation allocates unpredictably — the allocation
// budget tests skip their assertions (but still execute the paths) when set.
const raceEnabled = true
