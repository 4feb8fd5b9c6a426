// Package a sits at internal/workload: a library package outside obs,
// so the clock rule applies, but not result-affecting, so returning a
// clock reading is not a taint finding.
package a

import "time"

func bad() time.Time {
	return time.Now() // want "wall clock read time.Now"
}

func badSince(t0 time.Time) time.Duration {
	return time.Since(t0) // want "wall clock read time.Since"
}

func badUntil(t0 time.Time) time.Duration {
	return time.Until(t0) // want "wall clock read time.Until"
}

// Durations and clock-free time API are values, not clock reads.
func okDuration(d time.Duration) time.Duration {
	return d * 2
}

func okConstruct() time.Time {
	return time.Unix(0, 0)
}

type clock struct{}

func (clock) Now() int { return 0 }

// shadowed must not be mistaken for the package.
func shadowed() int {
	var time clock
	return time.Now()
}
