//go:build race

package shard

// raceEnabled reports whether the test binary was built with the race
// detector, whose instrumentation makes allocation counts meaningless.
const raceEnabled = true
