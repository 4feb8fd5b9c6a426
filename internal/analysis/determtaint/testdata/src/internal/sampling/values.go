package a

import (
	"math/rand"
	"time"
)

// A source taken as a function value is still a source, and calling the
// value taints the result.

func clockValue() int64 {
	now := time.Now         // want "wall clock read time.Now"
	return now().UnixNano() // want "tainted by wall clock"
}

func randValue() int {
	draw := rand.Intn // want "global math/rand.Intn"
	return draw(10)   // want "tainted by global RNG"
}
