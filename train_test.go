package aovlis

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aovlis/internal/core"
)

// TestTrainRejectsNonFinite pins the fail-closed contract of Train: a NaN
// or ±Inf anywhere in either training stream is refused with ErrNonFinite
// instead of training a detector whose τ is NaN (and which therefore can
// never alarm, since `score > NaN` is always false).
func TestTrainRejectsNonFinite(t *testing.T) {
	for _, stream := range []string{"action", "audience"} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			t.Run(stream+"/"+formatSpecial(bad), func(t *testing.T) {
				actions, audience := makeSeries(rand.New(rand.NewSource(1)), 80, nil)
				if stream == "action" {
					actions[37][3] = bad
				} else {
					audience[37][2] = bad
				}
				det, err := Train(actions, audience, testConfig())
				if !errors.Is(err, ErrNonFinite) {
					t.Fatalf("Train with a %v %s feature: err = %v, want ErrNonFinite", bad, stream, err)
				}
				if det != nil {
					t.Fatalf("Train returned a detector (τ = %v) alongside the error", det.Tau())
				}
			})
		}
	}
}

// TestTrainRejectsNonFiniteTau covers the second guard: finite features so
// large that training overflows to a non-finite τ must also be refused.
func TestTrainRejectsNonFiniteTau(t *testing.T) {
	actions, audience := makeSeries(rand.New(rand.NewSource(1)), 80, nil)
	for _, a := range audience {
		for i := range a {
			a[i] *= 1e300
		}
	}
	det, err := Train(actions, audience, testConfig())
	if !errors.Is(err, ErrNonFinite) {
		tau := math.NaN()
		if det != nil {
			tau = det.Tau()
		}
		t.Fatalf("Train on overflowing features: err = %v (τ = %v), want ErrNonFinite", err, tau)
	}
}

func formatSpecial(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	default:
		return "-Inf"
	}
}

// TestConcurrentCloneTraining trains a detector's model and its clones on
// separate goroutines at the same time and checks every result against
// the same training run serially. Each model owns its tape, arena and
// transposed-weight cache, so concurrent training must be bit-identical to
// serial training (run under -race -count=10 in CI). Both clone paths are
// covered: Detector.Clone (serving's per-channel clone) and
// core.Model.Clone (the updater's CLSTM_new).
func TestConcurrentCloneTraining(t *testing.T) {
	actions, audience := makeSeries(rand.New(rand.NewSource(7)), 120, nil)
	cfg := testConfig()
	cfg.Epochs = 2
	base, err := Train(actions, audience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := core.BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	// Each worker trains on its own slice and shuffle seed so the results
	// differ from one another, not just from the base.
	half := len(samples) / 2
	work := [][]core.Sample{samples[:half], samples[half:], samples}

	models := func() []*core.Model {
		det, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		dc, err := det.Clone()
		if err != nil {
			t.Fatal(err)
		}
		return []*core.Model{det.Model(), dc.Model(), det.Model().Clone()}
	}
	train := func(m *core.Model, i int) error {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		for e := 0; e < 3; e++ {
			if _, err := m.TrainEpoch(work[i], rng); err != nil {
				return err
			}
		}
		return nil
	}

	serial := models()
	want := make([][]byte, len(serial))
	for i, m := range serial {
		if err := train(m, i); err != nil {
			t.Fatal(err)
		}
		want[i] = runtimeBytes(t, m)
	}

	concurrent := models()
	errs := make([]error, len(concurrent))
	var wg sync.WaitGroup
	for i, m := range concurrent {
		wg.Add(1)
		go func(i int, m *core.Model) {
			defer wg.Done()
			errs[i] = train(m, i)
		}(i, m)
	}
	wg.Wait()
	for i, m := range concurrent {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(runtimeBytes(t, m), want[i]) {
			t.Errorf("model %d: concurrent training diverged from serial training", i)
		}
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("workers trained identical models; the test cannot tell them apart")
	}
}

// runtimeBytes serialises a model's parameters and Adam state.
func runtimeBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.SaveRuntime(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
