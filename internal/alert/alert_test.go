package alert

import (
	"math"
	"testing"
	"testing/quick"

	"sheriff/internal/traces"
)

func TestKindString(t *testing.T) {
	if FromServer.String() != "server" || FromLocalToR.String() != "local-tor" ||
		FromOuterSwitch.String() != "outer-switch" {
		t.Fatal("kind strings wrong")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestEvaluateFiresOnAnyComponent(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		p    traces.Profile
		want bool
	}{
		{traces.Profile{CPU: 0.95, Mem: 0.1, IO: 0.1, TRF: 0.1}, true},
		{traces.Profile{CPU: 0.1, Mem: 0.95, IO: 0.1, TRF: 0.1}, true},
		{traces.Profile{CPU: 0.1, Mem: 0.1, IO: 0.95, TRF: 0.1}, true},
		{traces.Profile{CPU: 0.1, Mem: 0.1, IO: 0.1, TRF: 0.95}, true},
		{traces.Profile{CPU: 0.89, Mem: 0.89, IO: 0.89, TRF: 0.89}, false},
		{traces.Profile{}, false},
	}
	for i, c := range cases {
		v, fired := Evaluate(c.p, th)
		if fired != c.want {
			t.Errorf("case %d: fired = %v, want %v", i, fired, c.want)
		}
		if fired && v != c.p.Max() {
			t.Errorf("case %d: value = %v, want max %v", i, v, c.p.Max())
		}
		if !fired && v != 0 {
			t.Errorf("case %d: unfired value = %v, want 0", i, v)
		}
	}
}

func TestEvaluateCustomThresholds(t *testing.T) {
	th := Thresholds{CPU: 0.5, Mem: 1, IO: 1, TRF: 1}
	if _, fired := Evaluate(traces.Profile{CPU: 0.6}, th); !fired {
		t.Fatal("custom CPU threshold not honored")
	}
	if _, fired := Evaluate(traces.Profile{Mem: 0.99}, th); fired {
		t.Fatal("Mem below threshold fired")
	}
}

// Property: the alert value is 0 or the profile max, never in between.
func TestEvaluateValueProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		clamp01 := func(x float64) float64 {
			if math.IsNaN(x) {
				return 0
			}
			x = math.Abs(x)
			return x - math.Floor(x)
		}
		p := traces.Profile{CPU: clamp01(a), Mem: clamp01(b), IO: clamp01(c), TRF: clamp01(d)}
		v, fired := Evaluate(p, DefaultThresholds())
		if fired {
			return v == p.Max()
		}
		return v == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
