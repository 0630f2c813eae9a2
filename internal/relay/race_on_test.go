//go:build race

package relay

// raceEnabled reports whether this binary was built with -race. Allocation
// budgets are gated in non-race builds only, as at the repo root: the race
// runtime drops sync.Pool puts at random, so the relay's pooled buffer path
// allocates there by design.
const raceEnabled = true
