package obs

import "time"

// Stopwatch is the sanctioned way for library packages to time an
// operation for metrics. The determtaint clock rule confines time.Now /
// time.Since to this package precisely so that a wall-clock reading can
// never leak into an estimate: durations measured here flow only into
// histograms and trace events, and the zero Stopwatch (from the
// disabled path) reports zero elapsed without ever reading the clock.
type Stopwatch struct {
	start time.Time
}

// NewStopwatch starts timing now.
func NewStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the time since the stopwatch started, or zero for the
// zero Stopwatch so disabled instrumentation stays clock-free.
func (s Stopwatch) Elapsed() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start)
}
