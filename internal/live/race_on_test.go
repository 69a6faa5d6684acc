//go:build race

package live

// raceEnabled reports whether the test binary was built with the race
// detector, under which sync.Pool deliberately drops entries and allocation
// counts stop meaning anything.
const raceEnabled = true
