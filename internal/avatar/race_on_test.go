//go:build race

package avatar

// raceEnabled reports whether the race detector is active. Race builds do
// not apply the compiler's allocation-free lowering of
// append(dst, make([]byte, n)...), so AppendEncode allocates there even
// when dst has room.
const raceEnabled = true
