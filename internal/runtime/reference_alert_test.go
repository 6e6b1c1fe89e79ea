package runtime

import (
	"math"
	"testing"

	"sheriff/internal/alert"
	"sheriff/internal/timeseries"
	"sheriff/internal/traces"
)

// Unit tests for the seed oracle's per-VM profile predictor and ToR queue
// monitor (reference_test.go).

// naiveForecaster predicts the last observed value.
type naiveForecaster struct{}

func (naiveForecaster) ForecastFrom(h *timeseries.Series, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		out[i] = h.Last()
	}
	return out, nil
}

// trendForecaster extrapolates the last difference.
type trendForecaster struct{}

func (trendForecaster) ForecastFrom(h *timeseries.Series, n int) ([]float64, error) {
	last := h.Last()
	slope := 0.0
	if h.Len() >= 2 {
		slope = last - h.At(h.Len()-2)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = last + slope*float64(i+1)
	}
	return out, nil
}

func TestProfilePredictorObserveAndPredict(t *testing.T) {
	pp := newProfilePredictor(naiveForecaster{}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})
	pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.4, IO: 0.3, TRF: 0.2})
	pp.Observe(traces.Profile{CPU: 0.6, Mem: 0.5, IO: 0.4, TRF: 0.3})
	if pp.HistoryLen() != 2 {
		t.Fatalf("HistoryLen = %d", pp.HistoryLen())
	}
	p, err := pp.Predict()
	if err != nil {
		t.Fatal(err)
	}
	want := traces.Profile{CPU: 0.6, Mem: 0.5, IO: 0.4, TRF: 0.3}
	if p != want {
		t.Fatalf("Predict = %+v, want %+v", p, want)
	}
}

func TestProfilePredictorClampsToUnitRange(t *testing.T) {
	pp := newProfilePredictor(trendForecaster{}, trendForecaster{}, trendForecaster{}, trendForecaster{})
	pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.9, IO: 0.1, TRF: 0.5})
	pp.Observe(traces.Profile{CPU: 0.9, Mem: 0.99, IO: 0.01, TRF: 0.5})
	p, err := pp.Predict()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Components() {
		if v < 0 || v > 1 {
			t.Fatalf("prediction out of [0,1]: %+v", p)
		}
	}
}

func TestProfilePredictorCheckFires(t *testing.T) {
	pp := newProfilePredictor(trendForecaster{}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})
	// CPU rising steeply: the trend forecaster projects past the threshold
	// before the measured value itself crosses it — a pre-alert.
	pp.Observe(traces.Profile{CPU: 0.70, Mem: 0.2, IO: 0.2, TRF: 0.2})
	pp.Observe(traces.Profile{CPU: 0.85, Mem: 0.2, IO: 0.2, TRF: 0.2})
	a, fired, err := pp.Check(alert.DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("pre-alert should fire on predicted CPU = 1.0")
	}
	if a.Kind != alert.FromServer || a.Value <= 0.9 {
		t.Fatalf("alert = %+v", a)
	}
}

func TestQueueMonitorValidation(t *testing.T) {
	if _, err := newQueueMonitor(naiveForecaster{}, 0, 0.8); err == nil {
		t.Error("zero limit accepted")
	}
	if _, err := newQueueMonitor(naiveForecaster{}, 100, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := newQueueMonitor(naiveForecaster{}, 100, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestQueueMonitorFiresOnPredictedCongestion(t *testing.T) {
	qm, err := newQueueMonitor(trendForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(50)
	qm.Observe(70) // trend +20 → predicted 90 > 80
	a, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !fired || a.Kind != alert.FromLocalToR {
		t.Fatalf("alert = %+v fired=%v", a, fired)
	}
	if math.Abs(a.Value-0.9) > 1e-9 {
		t.Fatalf("occupancy = %v, want 0.9", a.Value)
	}
}

func TestQueueMonitorQuietWhenStable(t *testing.T) {
	qm, err := newQueueMonitor(naiveForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(40)
	qm.Observe(42)
	_, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stable queue should not alert")
	}
}

// errorForecaster fails on demand to exercise error propagation.
type errorForecaster struct{ fail bool }

func (e errorForecaster) ForecastFrom(h *timeseries.Series, n int) ([]float64, error) {
	if e.fail {
		return nil, errForecast
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = h.Last()
	}
	return out, nil
}

var errForecast = &forecastError{}

type forecastError struct{}

func (*forecastError) Error() string { return "forecast failed" }

func TestProfilePredictorComponentErrors(t *testing.T) {
	// Each failing component must surface its error with context.
	cases := []struct {
		name string
		pp   *profilePredictor
	}{
		{"CPU", newProfilePredictor(errorForecaster{true}, naiveForecaster{}, naiveForecaster{}, naiveForecaster{})},
		{"MEM", newProfilePredictor(naiveForecaster{}, errorForecaster{true}, naiveForecaster{}, naiveForecaster{})},
		{"IO", newProfilePredictor(naiveForecaster{}, naiveForecaster{}, errorForecaster{true}, naiveForecaster{})},
		{"TRF", newProfilePredictor(naiveForecaster{}, naiveForecaster{}, naiveForecaster{}, errorForecaster{true})},
	}
	for _, c := range cases {
		c.pp.Observe(traces.Profile{CPU: 0.5, Mem: 0.5, IO: 0.5, TRF: 0.5})
		if _, err := c.pp.Predict(); err == nil {
			t.Errorf("%s failure not propagated", c.name)
		}
		if _, _, err := c.pp.Check(alert.DefaultThresholds()); err == nil {
			t.Errorf("%s failure not propagated via Check", c.name)
		}
	}
}

func TestQueueMonitorForecastError(t *testing.T) {
	qm, err := newQueueMonitor(errorForecaster{true}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(10)
	if _, _, err := qm.Check(); err == nil {
		t.Fatal("forecast error not propagated")
	}
}

func TestQueueMonitorClampsNegativePrediction(t *testing.T) {
	qm, err := newQueueMonitor(trendForecaster{}, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	qm.Observe(50)
	qm.Observe(5) // steep fall: prediction would be negative
	a, fired, err := qm.Check()
	if err != nil {
		t.Fatal(err)
	}
	if fired || a.Value != 0 {
		t.Fatalf("negative prediction not clamped: %+v fired=%v", a, fired)
	}
}
