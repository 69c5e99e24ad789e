//go:build race

package camchord

// raceEnabled reports whether the race detector instruments this build;
// allocation gates skip under it.
const raceEnabled = true
