package ipc

import (
	"testing"
	"time"
)

// The RetryBackoff contract is total over int: out-of-domain attempt values
// must clamp to the bottom of the ladder, not overflow onto the cap.
func TestRetryBackoffBoundaries(t *testing.T) {
	base := RetryBackoff(1)
	if base != time.Microsecond {
		t.Errorf("RetryBackoff(1) = %v, want the 1µs base", base)
	}
	// attempt <= 0 is out of domain (attempts are 1-based); the historical
	// behavior shifted by ~2^64 and landed on RetryBackoffMax by signed
	// overflow. The contract now clamps low, matching attempt 1.
	for _, n := range []int{0, -1, -1 << 40} {
		if d := RetryBackoff(n); d != base {
			t.Errorf("RetryBackoff(%d) = %v, want clamp to base %v", n, d, base)
		}
	}
	// Top of the ladder: 1µs doubling caps at 1ms by attempt 11.
	if d := RetryBackoff(11); d != RetryBackoffMax {
		t.Errorf("RetryBackoff(11) = %v, want saturation at %v", d, RetryBackoffMax)
	}
	// Shift-overflow territory: attempts past 63 would shift out of int64
	// entirely; they must still saturate, not wrap.
	for _, n := range []int{31, 63, 64, 1 << 20, 1<<63 - 1} {
		if d := RetryBackoff(n); d != RetryBackoffMax {
			t.Errorf("RetryBackoff(%d) = %v, want saturation at %v", n, d, RetryBackoffMax)
		}
	}
}

// JitteredBackoff draws under the deterministic envelope: positive, never
// above RetryBackoff(n), and not constant (otherwise it is not jitter and
// the retry stampede it exists to break re-forms).
func TestJitteredBackoffUnderEnvelope(t *testing.T) {
	for _, n := range []int{0, 1, 4, 11, 64} {
		ceil := RetryBackoff(n)
		varied := false
		first := JitteredBackoff(n)
		for i := 0; i < 256; i++ {
			d := JitteredBackoff(n)
			if d <= 0 || d > ceil {
				t.Fatalf("JitteredBackoff(%d) = %v, outside (0, %v]", n, d, ceil)
			}
			if d != first {
				varied = true
			}
		}
		if !varied && ceil > 1 {
			t.Errorf("JitteredBackoff(%d) returned %v 257 times; jitter is not jittering", n, first)
		}
	}
}
