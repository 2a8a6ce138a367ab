package core

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"aovlis/internal/mat"
)

// trainGoldenMarker prefixes the scalar reference a forced-scalar run of
// TestTrainSIMDMatchesScalarGolden prints for its SIMD parent.
const trainGoldenMarker = "TRAIN-GOLDEN "

// TestTrainSIMDMatchesScalarGolden trains a small CLSTM for a few hundred
// steps through whatever kernels are active, then re-runs this same test
// in a child process with AOVLIS_NOSIMD=1 (the forced scalar path) and
// requires every parameter and every Adam moment to match bit for bit.
// The shape puts hidden sizes and context widths on and off the SIMD
// block boundaries, so full blocks and scalar tails of the forward GEMM,
// the BT-via-Wᵀ product, the AT axpy and the Adam kernel all contribute.
// Run scalar (AOVLIS_NOSIMD=1, or a CPU without AVX2), the test only
// emits its reference and skips.
func TestTrainSIMDMatchesScalarGolden(t *testing.T) {
	got := trainGoldenRuntime(t)
	if !mat.HasSIMD() {
		fmt.Printf("%s%x\n", trainGoldenMarker, got)
		t.Skip("scalar kernels active: emitted the reference; the comparison runs with a SIMD level active")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTrainSIMDMatchesScalarGolden$", "-test.count=1")
	cmd.Env = append(os.Environ(), "AOVLIS_NOSIMD=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("scalar reference run: %v\n%s", err, out)
	}
	var want []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), trainGoldenMarker); ok {
			if want, err = hex.DecodeString(rest); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want == nil {
		t.Fatalf("scalar reference run printed no %q line:\n%s", trainGoldenMarker, out)
	}
	// gob numbers wire types per process in first-use order, so compare
	// encodings made by this process: decode the reference and re-encode.
	ref, err := LoadModel(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ref.SaveRuntime(&buf); err != nil {
		t.Fatal(err)
	}
	want = buf.Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("SIMD training (%s) diverged from the scalar kernels: %s", mat.SIMDGEMM(), firstParamDiff(t, got, want))
	}
}

// trainGoldenRuntime trains the golden model and returns its SaveRuntime
// encoding: parameters plus Adam step count and moments.
func trainGoldenRuntime(t *testing.T) []byte {
	t.Helper()
	cfg := DefaultConfig(20, 7)
	cfg.HiddenI, cfg.HiddenA = 40, 12
	cfg.SeqLen = 5
	cfg.LearningRate = 0.01
	rng := rand.New(rand.NewSource(21))
	actions, audience := makeCoupledSeries(rng, 80, cfg.ActionDim, cfg.AudienceDim)
	samples, err := BuildSamples(actions, audience, cfg.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		if _, err := m.TrainEpoch(samples, rng); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.SaveRuntime(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstParamDiff names the first parameter whose bits differ between two
// SaveRuntime encodings (or says the difference is in optimiser state).
func firstParamDiff(t *testing.T, a, b []byte) string {
	t.Helper()
	ma, err := LoadModel(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := LoadModel(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ma.Params().Names() {
		pa, pb := ma.Params().Get(name).Data, mb.Params().Get(name).Data
		for i := range pa {
			if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
				return fmt.Sprintf("parameter %s[%d] = %v, scalar %v", name, i, pa[i], pb[i])
			}
		}
	}
	return "parameters agree; the Adam moments differ"
}
