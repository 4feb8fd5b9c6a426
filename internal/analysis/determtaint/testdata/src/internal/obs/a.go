// Package a sits at internal/obs: a library package, so the math/rand
// rules apply, but exempt from the clock rule, so clockSeed reports only
// its seed.
package a

import (
	"math/rand"
	"time"
)

func globals() int {
	rand.Seed(1)       // want "global math/rand.Seed"
	x := rand.Intn(10) // want "global math/rand.Intn"
	_ = rand.Float64() // want "global math/rand.Float64"
	return x
}

func constSeed() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want "constant seed 42"
}

// A constant seed is caught by value, not by literal syntax.
func negativeSeed() *rand.Rand {
	return rand.New(rand.NewSource(-42)) // want "constant seed -42"
}

func namedConstSeed() *rand.Rand {
	const s = 7
	return rand.New(rand.NewSource(s)) // want "constant seed 7"
}

func clockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "seeded from the wall clock"
}

// injected is the sanctioned pattern: the seed flows in from Options.
func injected(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// methods on an injected generator are fine.
func methodsOK(r *rand.Rand) int {
	return r.Intn(3)
}

type fakeRand struct{}

func (fakeRand) Intn(int) int { return 0 }

// shadowed must not be mistaken for the package: the qualifier is a
// local variable.
func shadowed() int {
	rand := fakeRand{}
	return rand.Intn(5)
}
