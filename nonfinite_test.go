package aovlis

import (
	"errors"
	"math"
	"testing"
)

// TestObserveRejectsNonFinite: a NaN or ±Inf feature would score NaN, and
// `NaN > τ` is false — a silent "normal" verdict for that segment and,
// through the window, the next SeqLen. Observe and ObserveBatch must
// refuse it with ErrNonFinite before the window or counters move, so the
// next finite segment scores exactly as if the bad one was never sent.
func TestObserveRejectsNonFinite(t *testing.T) {
	base, actions, audience := allocFixtureDetector(t, true)
	// The fixture warmed base past the window on segments [0, warm).
	warm := base.Observed()
	type call int
	const (
		serial call = iota
		batchLane0
		batchMidLane
	)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, stream := range []string{"action", "audience"} {
			for _, how := range []call{serial, batchLane0, batchMidLane} {
				name := []string{"Observe", "ObserveBatch/lane0", "ObserveBatch/lane2"}[how]
				t.Run(stream+"/"+name+"/"+formatBad(bad), func(t *testing.T) {
					det, ref := cloneWarm(t, base, actions, audience, warm), cloneWarm(t, base, actions, audience, warm)
					next := warm
					act := append([]float64(nil), actions[next]...)
					aud := append([]float64(nil), audience[next]...)
					if stream == "action" {
						act[3] = bad
					} else {
						aud[1] = bad
					}

					var err error
					switch how {
					case serial:
						_, err = det.Observe(act, aud)
					case batchLane0:
						var n int
						n, err = det.ObserveBatch([][]float64{act, actions[next+1]}, [][]float64{aud, audience[next+1]}, make([]Result, 2))
						if n != 0 {
							t.Fatalf("ObserveBatch committed %d lanes before a bad lane 0", n)
						}
					case batchMidLane:
						// Lanes 0 and 1 are finite and commit; lane 2 is bad.
						acts := [][]float64{actions[next], actions[next+1], act, actions[next+2]}
						auds := [][]float64{audience[next], audience[next+1], aud, audience[next+2]}
						results := make([]Result, len(acts))
						var n int
						n, err = det.ObserveBatch(acts, auds, results)
						if n != 2 {
							t.Fatalf("ObserveBatch committed %d lanes, want the 2-lane valid prefix", n)
						}
						for i := 0; i < n; i++ {
							want, rerr := ref.Observe(acts[i], auds[i])
							if rerr != nil {
								t.Fatal(rerr)
							}
							requireSameResults(t, []Result{want}, results[i:i+1])
						}
						next += 2
					}
					if !errors.Is(err, ErrNonFinite) {
						t.Fatalf("err = %v, want ErrNonFinite", err)
					}
					if det.Observed() != ref.Observed() {
						t.Fatalf("Observed() = %d after the refused segment, want %d", det.Observed(), ref.Observed())
					}

					got, err := det.Observe(actions[next], audience[next])
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Observe(actions[next], audience[next])
					if err != nil {
						t.Fatal(err)
					}
					// The next finite segment scores as if the bad one was
					// never sent.
					requireSameResults(t, []Result{want}, []Result{got})
				})
			}
		}
	}
}

// cloneWarm clones base's trained model and warms the clone on the same
// segments base saw, so two clones walk bit-identical states.
func cloneWarm(t *testing.T, base *Detector, actions, audience [][]float64, warm int) *Detector {
	t.Helper()
	det, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if _, err := det.Observe(actions[i], audience[i]); err != nil {
			t.Fatal(err)
		}
	}
	return det
}

func formatBad(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case v > 0:
		return "+Inf"
	default:
		return "-Inf"
	}
}
