package resilience

import "testing"

// TestRetryAfterSeconds table-drives the queue-fullness scaling.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth, capacity, max, want int64
	}{
		{0, 100, 8, 1},    // empty queue: minimal hint
		{50, 100, 8, 4},   // half full: mid scale
		{100, 100, 8, 8},  // at high water: the max
		{200, 100, 8, 8},  // past high water: clamped
		{1, 100, 8, 1},    // ceil keeps the floor at 1
		{-5, 100, 8, 1},   // garbage depth: floor
		{10, 0, 8, 1},     // no capacity known: floor
		{100, 100, 0, 1},  // max floored at 1
		{99, 100, 60, 60}, // ceil rounds up to the cap
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.depth, tc.capacity, tc.max); got != tc.want {
			t.Errorf("RetryAfterSeconds(%d, %d, %d) = %d, want %d", tc.depth, tc.capacity, tc.max, got, tc.want)
		}
	}
}
