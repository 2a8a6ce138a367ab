package aovlis

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"aovlis/internal/dataset"
	"aovlis/internal/mat"
	"aovlis/internal/synth"
)

// scoringGoldenMarker prefixes the verdict lines a forced-scalar run of
// TestScoringSIMDMatchesScalarGolden prints for its SIMD parent.
const scoringGoldenMarker = "SCORING-GOLDEN "

// TestScoringSIMDMatchesScalarGolden trains a detector on aovlisd's
// default world and shape (INF, 420 s, 48 classes, seed 1; fewer epochs)
// through whatever kernels are active, scores the test split through
// ObserveBatch as the daemon's shard workers do, then re-runs this same
// test in a child process with AOVLIS_NOSIMD=1 and requires every score's
// bits, verdict and decision path to match. It covers the exact exp,
// sigmoid and tanh kernels end to end: the training tape's activations,
// the gate kernel, the decoder activations and the softmax. Run scalar
// (AOVLIS_NOSIMD=1, or a CPU without AVX2), the test only emits its
// reference and skips.
func TestScoringSIMDMatchesScalarGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the daemon-shape detector")
	}
	got := scoringGoldenVerdicts(t)
	if !mat.HasSIMD() {
		for _, line := range got {
			fmt.Println(scoringGoldenMarker + line)
		}
		t.Skip("scalar kernels active: emitted the reference; the comparison runs with a SIMD level active")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestScoringSIMDMatchesScalarGolden$", "-test.count=1")
	cmd.Env = append(os.Environ(), "AOVLIS_NOSIMD=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("scalar reference run: %v\n%s", err, out)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), scoringGoldenMarker); ok {
			want = append(want, rest)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("scalar reference run printed %d verdicts, this run scored %d:\n%s", len(want), len(got), out)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("segment %d: SIMD (%s) verdict %q, scalar %q", i, mat.SIMDGEMM(), got[i], want[i])
		}
	}
}

// scoringGoldenVerdicts trains the golden detector, scores its test split
// and renders one line per segment: score bits, anomaly flag, path.
func scoringGoldenVerdicts(t *testing.T) []string {
	t.Helper()
	dcfg := dataset.DefaultConfig(synth.INF())
	dcfg.TrainSec, dcfg.TestSec = 420, 64
	dcfg.Classes = 48
	dcfg.Seed = 1
	ds, err := dataset.Build(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(48, dcfg.Audience.Dim())
	cfg.Epochs, cfg.Seed = 3, 1
	det, err := Train(ds.TrainActions, ds.TrainAudience, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{fmt.Sprintf("tau %016x", math.Float64bits(det.Tau()))}
	const batch = 8
	results := make([]Result, batch)
	for from := 0; from < len(ds.TestActions); from += batch {
		to := min(from+batch, len(ds.TestActions))
		n, err := det.ObserveBatch(ds.TestActions[from:to], ds.TestAudience[from:to], results)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results[:n] {
			lines = append(lines, fmt.Sprintf("%016x %t %t %s", math.Float64bits(r.Score), r.Warmup, r.Anomaly, r.Path))
		}
	}
	return lines
}
