//go:build !race

package core

// raceEnabled: see alloc_budget_race_test.go.
const raceEnabled = false
