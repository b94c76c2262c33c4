package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDistEmpty(t *testing.T) {
	d := NewDist()
	if d.N() != 0 {
		t.Fatal("empty dist has samples")
	}
	for _, v := range []float64{d.Median(), d.Mean(), d.Min(), d.Max(), d.Stddev(), d.Percentile(90), d.FracAtMost(1)} {
		if !math.IsNaN(v) {
			t.Fatalf("empty dist stat = %v, want NaN", v)
		}
	}
	if d.CDF() != nil {
		t.Fatal("empty CDF not nil")
	}
}

func TestDistBasics(t *testing.T) {
	d := NewDist()
	for _, v := range []float64{4, 1, 3, 2, 5} {
		d.Add(v)
	}
	if d.N() != 5 || d.Median() != 3 || d.Mean() != 3 || d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("stats wrong: %v", d.Summarize())
	}
	if got := d.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := d.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := d.Percentile(25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	if math.Abs(d.Stddev()-math.Sqrt(2)) > 1e-9 {
		t.Errorf("stddev = %v", d.Stddev())
	}
}

func TestDistInterpolation(t *testing.T) {
	d := NewDist()
	d.Add(0)
	d.Add(10)
	if got := d.Percentile(50); got != 5 {
		t.Errorf("interpolated median = %v", got)
	}
	if got := d.Percentile(75); got != 7.5 {
		t.Errorf("p75 = %v", got)
	}
}

func TestAddDuration(t *testing.T) {
	d := NewDist()
	d.AddDuration(1500 * time.Millisecond)
	if d.Mean() != 1.5 {
		t.Errorf("duration sample = %v", d.Mean())
	}
}

func TestCDFAndFracAtMost(t *testing.T) {
	d := NewDist()
	for _, v := range []float64{1, 1, 2, 3, 3, 3, 4, 5, 5, 10} {
		d.Add(v)
	}
	cdf := d.CDF()
	if len(cdf) != 6 {
		t.Fatalf("CDF points = %d, want 6 distinct", len(cdf))
	}
	if cdf[0].Value != 1 || cdf[0].Frac != 0.2 {
		t.Errorf("first CDF point = %+v", cdf[0])
	}
	last := cdf[len(cdf)-1]
	if last.Value != 10 || last.Frac != 1 {
		t.Errorf("last CDF point = %+v", last)
	}
	if got := d.FracAtMost(3); got != 0.6 {
		t.Errorf("FracAtMost(3) = %v", got)
	}
	if got := d.FracAtMost(0.5); got != 0 {
		t.Errorf("FracAtMost(0.5) = %v", got)
	}
	if got := d.FracAtMost(100); got != 1 {
		t.Errorf("FracAtMost(100) = %v", got)
	}
}

func TestInterleavedAddAndQuery(t *testing.T) {
	// Percentile sorts lazily; adding after querying must still work.
	d := NewDist()
	d.Add(5)
	_ = d.Median()
	d.Add(1)
	d.Add(9)
	if d.Median() != 5 || d.Min() != 1 || d.Max() != 9 {
		t.Fatal("lazy sort broken by interleaved adds")
	}
}

func TestSummaryString(t *testing.T) {
	d := NewDist()
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	s := d.Summarize()
	if s.N != 100 || s.Median != 50.5 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "median=50.500") {
		t.Errorf("summary string = %s", s)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	t0 := time.Unix(0, 0)
	s.Add(t0, 1)
	s.Add(t0.Add(time.Second), 5)
	s.Add(t0.Add(2*time.Second), 3)
	if s.Len() != 3 {
		t.Fatal("series length wrong")
	}
	at, v := s.MaxValue()
	if v != 5 || !at.Equal(t0.Add(time.Second)) {
		t.Errorf("max = %v at %v", v, at)
	}
	var empty Series
	if _, v := empty.MaxValue(); !math.IsNaN(v) {
		t.Error("empty series max not NaN")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("a", 3)
	c.Inc("b", 1)
	c.Inc("a", 2)
	c.Inc("c", 1)
	if c.Get("a") != 5 || c.Len() != 3 {
		t.Fatal("counter wrong")
	}
	sorted := c.Sorted()
	if sorted[0].Key != "a" || sorted[0].Count != 5 {
		t.Errorf("sorted[0] = %+v", sorted[0])
	}
	if sorted[1].Key != "b" || sorted[2].Key != "c" {
		t.Error("tie break by key broken")
	}
	// Imbalance: counts 5,1,1 → max/mean = 5/(7/3).
	want := 5.0 / (7.0 / 3.0)
	if got := c.ImbalanceRatio(); math.Abs(got-want) > 1e-9 {
		t.Errorf("imbalance = %v, want %v", got, want)
	}
	if !math.IsNaN(NewCounter().ImbalanceRatio()) {
		t.Error("empty counter imbalance not NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value", "latency")
	tb.Row("alpha", 3.14159, 1500*time.Millisecond)
	tb.Row("a-much-longer-name", 42, time.Second)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.Contains(lines[2], "3.142") {
		t.Errorf("float formatting: %q", lines[2])
	}
	if !strings.Contains(lines[2], "1.5s") {
		t.Errorf("duration formatting: %q", lines[2])
	}
	// All rows equal width per column => header width == separator width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("misaligned header/separator: %q vs %q", lines[0], lines[1])
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	f := func() bool {
		d := NewDist()
		n := 1 + r.Intn(100)
		for i := 0; i < n; i++ {
			d.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return d.Min() <= d.Median() && d.Median() <= d.Max() &&
			d.Mean() >= d.Min() && d.Mean() <= d.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCDFValid(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	f := func() bool {
		d := NewDist()
		n := 1 + r.Intn(50)
		for i := 0; i < n; i++ {
			d.Add(float64(r.Intn(10)))
		}
		cdf := d.CDF()
		prevV, prevF := math.Inf(-1), 0.0
		for _, p := range cdf {
			if p.Value <= prevV || p.Frac <= prevF || p.Frac > 1 {
				return false
			}
			prevV, prevF = p.Value, p.Frac
		}
		return len(cdf) > 0 && cdf[len(cdf)-1].Frac == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
