package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"aovlis"
)

// verdict is the subset of a decision (NDJSON line or live message) the
// oracle compares.
type verdict struct {
	Warmup   bool    `json:"warmup"`
	Anomaly  bool    `json:"anomaly"`
	Score    float64 `json:"score"`
	Exact    bool    `json:"exact"`
	Path     string  `json:"path"`
	Dropped  bool    `json:"dropped"`
	Rejected bool    `json:"rejected"`
	Error    string  `json:"error"`
}

// replay is one channel's serial reference: every segment the channel was
// sent, scored in order through aovlis.Detector.Observe on a fresh clone of
// the template — the detector the daemon attached for the channel.
type replay struct {
	res   []aovlis.Result
	start []time.Time     // per-call Observe start
	dur   []time.Duration // per-call Observe time
}

func runReplay(tmpl *aovlis.Detector, w *world, idx []int32) (replay, error) {
	det, err := tmpl.Clone()
	if err != nil {
		return replay{}, err
	}
	rp := replay{res: make([]aovlis.Result, len(idx)), start: make([]time.Time, len(idx)), dur: make([]time.Duration, len(idx))}
	for k, i := range idx {
		t0 := time.Now()
		r, err := det.Observe(w.act[i], w.aud[i])
		rp.start[k], rp.dur[k] = t0, time.Since(t0)
		if err != nil {
			return replay{}, fmt.Errorf("reference replay segment %d: %w", k, err)
		}
		rp.res[k] = r
	}
	return rp, nil
}

// replayBoth runs both channels' references concurrently over the first
// limit segments each channel was sent.
func replayBoth(tmpl *aovlis.Detector, w *world, cs [2]*conn, limit int) ([2]replay, error) {
	var (
		out  [2]replay
		errs [2]error
		wg   sync.WaitGroup
	)
	for ch := range cs {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			idx := cs[ch].idx
			out[ch], errs[ch] = runReplay(tmpl, w, idx[:min(len(idx), limit)])
		}(ch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// check compares every decision a connection received with the reference
// and returns the verdicts and the number of failed segments: missing,
// errored, dropped or rejected decisions, and any whose warm-up flag,
// anomaly flag, path or score bits differ.
func check(c *conn, rp replay) ([]verdict, int, string) {
	n := len(c.idx)
	got := int(c.recv.Load())
	vs := make([]verdict, got)
	failed, first := 0, ""
	note := func(k int, why string) {
		failed++
		if first == "" {
			first = fmt.Sprintf("stream %s segment %d: %s", c.id, k, why)
		}
	}
	for k := 0; k < n; k++ {
		if k >= got {
			note(k, "no decision")
			continue
		}
		v := &vs[k]
		if err := json.Unmarshal(c.decision(k), v); err != nil {
			note(k, fmt.Sprintf("unparsable decision %q", c.decision(k)))
			continue
		}
		want := rp.res[k]
		switch {
		case v.Error != "" || v.Dropped || v.Rejected:
			note(k, fmt.Sprintf("error=%q dropped=%v rejected=%v", v.Error, v.Dropped, v.Rejected))
		case v.Warmup != want.Warmup:
			note(k, fmt.Sprintf("warmup %v, reference %v", v.Warmup, want.Warmup))
		case !want.Warmup && (v.Anomaly != want.Anomaly || v.Path != want.Path ||
			math.Float64bits(v.Score) != math.Float64bits(want.Score)):
			note(k, fmt.Sprintf("anomaly=%v path=%s score=%v, reference anomaly=%v path=%s score=%v",
				v.Anomaly, v.Path, v.Score, want.Anomaly, want.Path, want.Score))
		}
	}
	return vs, failed, first
}
