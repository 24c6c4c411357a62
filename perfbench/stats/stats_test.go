package stats

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median sorted its argument in place")
	}
}

// The expected cut points are what Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4.1, 3.9, 4.4, 4.0, 4.3, 5.0, 3.8}, [3]float64{3.9, 4.1, 4.4}},
	} {
		q1, q2, q3 := Quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestSpread(t *testing.T) {
	got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}
