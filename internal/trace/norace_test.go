//go:build !race

package trace

// raceDetector reports a build with the race detector, whose sync.Pool
// drops pooled objects at random.
const raceDetector = false
