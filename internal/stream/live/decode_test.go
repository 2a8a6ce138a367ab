package live

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// daemonLine renders one observation at the daemon world's shape (48
// action and 19 audience features) with the full-precision literals
// json.Marshal writes for real feature values.
func daemonLine(rng *rand.Rand) []byte {
	obs := Observation{Action: make([]float64, 48), Audience: make([]float64, 19)}
	for i := range obs.Action {
		obs.Action[i] = rng.Float64() / 7
	}
	for i := range obs.Audience {
		obs.Audience[i] = rng.NormFloat64()
	}
	b, err := json.Marshal(obs)
	if err != nil {
		panic(err)
	}
	return b
}

// sameVector reports whether two decoded vectors are identical: the same
// nil-ness, length and bits.
func sameVector(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkMatchesJSON is the differential oracle: Decode must agree with
// json.Unmarshal on error-ness, error text, nil-ness and every bit.
func checkMatchesJSON(t *testing.T, dec *ObservationDecoder, b []byte) {
	t.Helper()
	got, gotErr := dec.Decode(b)
	var want Observation
	wantErr := json.Unmarshal(b, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Decode(%q) err = %v, json.Unmarshal err = %v", b, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("Decode(%q) err text %q, json.Unmarshal %q", b, gotErr, wantErr)
	}
	if !sameVector(got.Action, want.Action) || !sameVector(got.Audience, want.Audience) {
		t.Fatalf("Decode(%q) = %#v, json.Unmarshal = %#v", b, got, want)
	}
}

// TestDecodeObservationMatchesJSON runs the differential oracle over
// daemon-shaped lines, the input the fast path exists for. The edge
// cases — reordered and duplicate keys, null, -0, out-of-range numbers,
// escapes, whitespace, grammar violations — are the fuzz target's
// checked-in corpus (testdata/fuzz/FuzzDecodeObservation), which plain
// `go test` runs too.
func TestDecodeObservationMatchesJSON(t *testing.T) {
	var dec ObservationDecoder
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		checkMatchesJSON(t, &dec, daemonLine(rng))
	}
}

// FuzzDecodeObservation holds the decoder to encoding/json on arbitrary
// input: same acceptance, same error text, bit-identical values.
func FuzzDecodeObservation(f *testing.F) {
	f.Add(daemonLine(rand.New(rand.NewSource(1))))
	var dec ObservationDecoder
	f.Fuzz(func(t *testing.T, b []byte) {
		checkMatchesJSON(t, &dec, b)
	})
}

// TestDecodeObservationFreshSlices pins the ownership rule: a Detector
// keeps the decoded slices in its window after Observe returns, so every
// Decode must hand out memory that no later Decode — and no reuse of the
// decoder's scratch — can touch.
func TestDecodeObservationFreshSlices(t *testing.T) {
	var dec ObservationDecoder
	rng := rand.New(rand.NewSource(2))
	lines := [][]byte{daemonLine(rng), daemonLine(rng)}
	var obs, snap []Observation
	for _, b := range lines {
		o, err := dec.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, o)
		snap = append(snap, Observation{
			Action:   append([]float64(nil), o.Action...),
			Audience: append([]float64(nil), o.Audience...),
		})
	}
	// Scribble over the scratch and over the second result; the first
	// result must not move.
	scratch := dec.scratch[:cap(dec.scratch)]
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	for i := range obs[1].Action {
		obs[1].Action[i] = -1
	}
	for i := range obs[1].Audience {
		obs[1].Audience[i] = -1
	}
	if !sameVector(obs[0].Action, snap[0].Action) || !sameVector(obs[0].Audience, snap[0].Audience) {
		t.Fatal("first Decode result aliases the decoder scratch or a later result")
	}
	// Restore and check the other direction: a further Decode must not
	// touch the second result either.
	copy(obs[1].Action, snap[1].Action)
	copy(obs[1].Audience, snap[1].Audience)
	if _, err := dec.Decode(daemonLine(rng)); err != nil {
		t.Fatal(err)
	}
	for i := range obs {
		if !sameVector(obs[i].Action, snap[i].Action) || !sameVector(obs[i].Audience, snap[i].Audience) {
			t.Fatalf("Decode result %d changed by a later Decode", i)
		}
	}
	// Both vectors share one allocation: appending to the first-listed one
	// must not spill into the other, in either key order.
	for _, line := range []string{`{"action":[1,2],"audience":[3,4]}`, `{"audience":[3,4],"action":[1,2]}`} {
		o, err := dec.Decode([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		_ = append(o.Action, 99)
		_ = append(o.Audience, 99)
		if !sameVector(o.Action, []float64{1, 2}) || !sameVector(o.Audience, []float64{3, 4}) {
			t.Fatalf("%s: append spilled across vectors: %v", line, o)
		}
	}
}

// TestDecodeObservationAllocs pins the fast path at exactly one allocation
// per message: the block that backs both returned vectors.
func TestDecodeObservationAllocs(t *testing.T) {
	line := daemonLine(rand.New(rand.NewSource(3)))
	var dec ObservationDecoder
	if _, err := dec.Decode(line); err != nil { // size the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := dec.Decode(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Decode allocs = %v per message, want exactly 1", allocs)
	}
}

var sinkObs Observation

// BenchmarkDecodeObservation compares the decoder with the json.Unmarshal
// call it replaced, on a daemon-shaped line (48+19 full-precision floats).
func BenchmarkDecodeObservation(b *testing.B) {
	line := daemonLine(rand.New(rand.NewSource(4)))
	b.Run("decoder", func(b *testing.B) {
		var dec ObservationDecoder
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			obs, err := dec.Decode(line)
			if err != nil {
				b.Fatal(err)
			}
			sinkObs = obs
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var obs Observation
			if err := json.Unmarshal(line, &obs); err != nil {
				b.Fatal(err)
			}
			sinkObs = obs
		}
	})
}
