package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aovlis"
	"aovlis/internal/ledger"
	"aovlis/internal/stream/live"
	"aovlis/internal/wal"
)

// traced is the per-layer run. It offers the fixed-rate schedule twice on
// one daemon: first untraced (its p50 is the tracing-overhead baseline),
// then with /metrics and /channels scraped at 1 Hz and at both phase
// boundaries. After the daemon stops, the same per-channel inputs are
// replayed in-process with one span around each public call of a layer.
// Spans are kept in memory and written out at the end, with a per-layer
// table and the stage-budget line.
func (r *run) traced() (result, error) {
	if _, err := r.start(1); err != nil {
		return result{}, err
	}
	if _, err := r.offer(r.pl.steady(time.Second, r.wl.rate)); err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	base, _, _, err := r.fixedPhase()
	if err != nil {
		return result{}, fmt.Errorf("untraced fixed phase: %w", err)
	}
	p50Untraced := roundQuantile(base, 0.5)
	from := [2]int{int(r.cs[0].sent.Load()), int(r.cs[1].sent.Load())}

	sc := &scraper{addr: r.d.addr, epoch: r.epoch}
	before, err := sc.scrape("traced-start")
	if err != nil {
		return result{}, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.loop(stop)
	}()
	rounds, _, inflightMax, err := r.fixedPhase()
	close(stop)
	wg.Wait()
	if err != nil {
		return result{}, fmt.Errorf("traced fixed phase: %w", err)
	}
	ps := phaseStats{sp: span{from: from, to: [2]int{int(r.cs[0].sent.Load()), int(r.cs[1].sent.Load())}}, inflightMax: inflightMax}
	after, err := sc.scrape("traced-end")
	if err != nil {
		return result{}, err
	}
	perShard, err := r.observedPerShard()
	if err != nil {
		return result{}, err
	}
	fin, err := r.finish()
	if err != nil {
		return result{}, err
	}

	tr := &tracer{epoch: r.epoch}
	tr.client(r.cs, ps.sp)
	m := layerMetrics{}
	m.set("trace.overhead_ms", roundQuantile(rounds, 0.5)-p50Untraced, "ms")
	m.set("client.p99_ms", roundQuantile(rounds, 0.99), "ms")
	var late []float64
	for ch, c := range r.cs {
		for k := ps.sp.from[ch]; k < ps.sp.to[ch]; k++ {
			late = append(late, float64(c.sendAt[k]-c.due[k])/1e6)
		}
	}
	m.set("client.gen_late_ms", quantile(late, 0.99), "ms")
	m.set("client.inflight_max", float64(ps.inflightMax), "count")
	m.set("client.wait_us", tr.mean("client.wait"), "us")

	d := after.delta(before)
	m.set("serve.queue_wait_us", 1e6*d.ratio("aovlis_pool_queue_wait_seconds_sum", "aovlis_pool_queue_wait_seconds_count"), "us")
	m.set("serve.batch_occupancy", d.ratio("aovlis_pool_batch_occupancy_sum", "aovlis_pool_batch_occupancy_count"), "seg")
	m.set("serve.score_us_per_seg", 1e6*d.ratio("aovlis_pool_score_latency_seconds_sum", "aovlis_pool_observed_total"), "us")
	m.set("serve.admission_transitions", d["aovlis_pool_admission_transitions_total"], "count")
	m.set("serve.shard_max_share", maxShare(perShard), "fraction")

	if err := r.replayLayers(tr, m, fin, ps.sp, math.Max(1, math.Round(m["serve.batch_occupancy"].Value))); err != nil {
		return result{}, err
	}
	if err := r.writeTrace(tr, m, sc, fin, perShard); err != nil {
		return result{}, err
	}
	return result{Correct: fin.failed == 0, Attempted: fin.attempted, Failed: fin.failed, Metrics: m}, nil
}

// updateSegs bounds the updater replay per channel.
const updateSegs = 3000

// layerMetrics is the per-layer result set.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// replayLayers drives each layer's public functions in-process with the
// run's own inputs, one span per call, keyed by (channel, segment).
func (r *run) replayLayers(tr *tracer, m layerMetrics, fin finished, sp span, occ float64) error {
	// Wire: decode every observation of the traced phase, encode every
	// decision.
	for ch, c := range r.cs {
		for k := sp.from[ch]; k < sp.to[ch]; k++ {
			var obs live.Observation
			t0 := time.Now()
			if err := json.Unmarshal(r.w.msg[c.idx[k]], &obs); err != nil {
				return err
			}
			tr.add("wire.decode", ch, k, t0, time.Now())
			res := fin.ref[ch].res[k]
			t0 = time.Now()
			if _, err := json.Marshal(&live.Decision{Channel: c.id, Seq: uint64(k + 1), Warmup: res.Warmup,
				Anomaly: res.Anomaly, Score: res.Score, Exact: res.Exact, Path: res.Path}); err != nil {
				return err
			}
			tr.add("wire.encode", ch, k, t0, time.Now())
		}
	}
	m.set("wire.decode_us", tr.mean("wire.decode"), "us")
	m.set("wire.encode_us", tr.mean("wire.encode"), "us")

	// Detector: the reference replay already timed every serial Observe.
	// A twin trained with EnableUpdate replays the first updateSegs inputs
	// of each channel for the updater's retrains (each 1-2 s, several per
	// thousand segments) and its per-segment overhead.
	plain := fin.ref
	upd, err := r.w.trainTemplate(true)
	if err != nil {
		return err
	}
	withUpd, err := replayBoth(upd, r.w, r.cs, updateSegs)
	if err != nil {
		return err
	}
	var withSum, plainSum time.Duration
	var n int
	var retrainMs []float64
	for ch := range r.cs {
		for k, res := range withUpd[ch].res {
			if res.Updated {
				retrainMs = append(retrainMs, float64(withUpd[ch].dur[k])/1e6)
				continue
			}
			withSum += withUpd[ch].dur[k]
			plainSum += plain[ch].dur[k]
			n++
		}
	}
	m.set("update.retrains", float64(len(retrainMs)), "count")
	m.set("update.retrain_ms", median(retrainMs), "ms")
	m.set("update.observe_overhead_us", float64(withSum-plainSum)/1e3/float64(n), "us")
	for ch := range r.cs {
		for k := sp.from[ch]; k < sp.to[ch]; k++ {
			tr.add("detector.observe", ch, k, plain[ch].start[k], plain[ch].start[k].Add(plain[ch].dur[k]))
		}
	}
	m.set("detector.observe_us", tr.mean("detector.observe"), "us")

	batchUs, err := r.batchReplay(tr, sp, int(occ))
	if err != nil {
		return err
	}
	m.set("detector.observe_batch_us", batchUs, "us")

	// Traffic witnesses over every decision of the run.
	paths := map[string]int{}
	var decided, anomalies, exact int
	for ch := range r.cs {
		for _, res := range fin.ref[ch].res {
			if res.Warmup {
				continue
			}
			decided++
			paths[res.Path]++
			if res.Anomaly {
				anomalies++
			}
			if res.Exact {
				exact++
			}
		}
	}
	m.set("detector.anomaly_frac", float64(anomalies)/float64(decided), "fraction")
	m.set("ados.exact_frac", float64(exact)/float64(decided), "fraction")
	for _, p := range []string{"exact", "REA-only", "REG_I", "JSmax", "JSmin"} {
		m.set("ados.path."+p, float64(paths[p]), "count")
	}

	// The daemon runs without journal and ledger (see workloads), so both
	// layers are measured here on the run's own inputs.
	fsyncUs, perFsync, err := r.walReplay(tr, sp)
	if err != nil {
		return err
	}
	m.set("wal.append_us", tr.mean("wal.append"), "us")
	m.set("wal.fsync_us", fsyncUs, "us")
	m.set("wal.records_per_fsync", perFsync, "count")
	perCommit, err := r.ledgerReplay(tr, fin, sp)
	if err != nil {
		return err
	}
	m.set("ledger.append_us", tr.mean("ledger.append"), "us")
	m.set("ledger.entries_per_commit", perCommit, "count")
	return nil
}

// batchReplay scores each channel's whole stream through ObserveBatch in
// runs of occ segments (the occupancy the daemon's shards measured) and
// returns the mean time per segment.
func (r *run) batchReplay(tr *tracer, sp span, occ int) (float64, error) {
	tmpl := r.tmpl
	var total time.Duration
	var n int
	for ch, c := range r.cs {
		det, err := tmpl.Clone()
		if err != nil {
			return 0, err
		}
		results := make([]aovlis.Result, occ)
		acts, auds := make([][]float64, 0, occ), make([][]float64, 0, occ)
		for k := 0; k < len(c.idx); k += occ {
			end := min(k+occ, len(c.idx))
			acts, auds = acts[:0], auds[:0]
			for _, i := range c.idx[k:end] {
				acts, auds = append(acts, r.w.act[i]), append(auds, r.w.aud[i])
			}
			t0 := time.Now()
			if _, err := det.ObserveBatch(acts, auds, results); err != nil {
				return 0, err
			}
			t1 := time.Now()
			total += t1.Sub(t0)
			n += end - k
			if k >= sp.from[ch] && k < sp.to[ch] {
				tr.add("detector.observe_batch", ch, k, t0, t1)
			}
		}
	}
	return float64(total) / 1e3 / float64(n), nil
}

// walReplay appends each channel's traced-phase observations to a fresh
// journal from two goroutines, as the daemon's two stream handlers would,
// and returns the mean fsync time in µs and the records per fsync.
func (r *run) walReplay(tr *tracer, sp span) (float64, float64, error) {
	var (
		mu     sync.Mutex
		fsyncs int
		fsyncS float64
	)
	j, err := wal.Open(filepath.Join(r.dir, "replay-wal"), wal.Options{FsyncObserve: func(s float64) {
		mu.Lock()
		fsyncs++
		fsyncS += s
		mu.Unlock()
	}})
	if err != nil {
		return 0, 0, err
	}
	var (
		wg   sync.WaitGroup
		errs [2]error
		part [2]*tracer
	)
	for ch, c := range r.cs {
		wg.Add(1)
		part[ch] = &tracer{epoch: r.epoch}
		go func(ch int, c *conn) {
			defer wg.Done()
			end := min(sp.to[ch], sp.from[ch]+2000) // bounds the fsyncs a replay pays
			for k := sp.from[ch]; k < end; k++ {
				i := c.idx[k]
				t0 := time.Now()
				if err := j.Append(c.id, uint64(k+1), r.w.act[i], r.w.aud[i]); err != nil {
					errs[ch] = err
					return
				}
				part[ch].add("wal.append", ch, k, t0, time.Now())
			}
		}(ch, c)
	}
	wg.Wait()
	records := 0
	for ch := range part {
		tr.spans = append(tr.spans, part[ch].spans...)
		records += len(part[ch].spans)
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if fsyncs == 0 {
		return 0, 0, fmt.Errorf("journal replay: no fsync observed")
	}
	return 1e6 * fsyncS / float64(fsyncs), float64(records) / float64(fsyncs), nil
}

// ledgerReplay appends every non-warm-up verdict of the traced phase to a
// fresh ledger and returns its entries per committed batch.
func (r *run) ledgerReplay(tr *tracer, fin finished, sp span) (float64, error) {
	var commits, entries int
	led, err := ledger.Open(filepath.Join(r.dir, "replay-ledger"), ledger.Options{
		OnCommit: func(n int) { commits++; entries += n }})
	if err != nil {
		return 0, err
	}
	for ch, c := range r.cs {
		for k := sp.from[ch]; k < sp.to[ch]; k++ {
			res := fin.ref[ch].res[k]
			if res.Warmup {
				continue
			}
			t0 := time.Now()
			if _, err := led.Append(ledger.Entry{Channel: c.id, ChannelSeq: uint64(k + 1), UnixNanos: t0.UnixNano(),
				Anomaly: res.Anomaly, Score: res.Score, Exact: res.Exact, Path: res.Path}); err != nil {
				led.Close()
				return 0, err
			}
			tr.add("ledger.append", ch, k, t0, time.Now())
		}
	}
	if err := led.Close(); err != nil {
		return 0, err
	}
	return float64(entries) / float64(max(commits, 1)), nil
}

// observedPerShard sums the channels' scored segments per pool shard.
func (r *run) observedPerShard() (map[int]uint64, error) {
	resp, err := http.Get("http://" + r.d.addr + "/channels")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var stats []struct {
		Shard    int    `json:"shard"`
		Observed uint64 `json:"observed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, fmt.Errorf("decoding /channels: %w", err)
	}
	out := map[int]uint64{}
	for _, s := range stats {
		out[s.Shard] += s.Observed
	}
	return out, nil
}

func maxShare(perShard map[int]uint64) float64 {
	var total, top uint64
	for _, n := range perShard {
		total += n
		top = max(top, n)
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// traceSpan is one timed call: its layer, the segment it served (stream
// and position, which every span of one segment shares), and its interval
// from the run epoch. The benchmark's spans have no children, so a span's
// self time is its duration.
type traceSpan struct {
	Name    string `json:"name"`
	Channel int    `json:"channel"`
	Seg     int    `json:"seg"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

type tracer struct {
	spans []traceSpan
	epoch time.Time
}

func (t *tracer) add(name string, ch, seg int, t0, t1 time.Time) {
	t.spans = append(t.spans, traceSpan{name, ch, seg, int64(t0.Sub(t.epoch)), int64(t1.Sub(t.epoch))})
}

// client records client.send (write start → write return) and client.wait
// (write return → decision read) for every segment of the phase.
func (t *tracer) client(cs [2]*conn, sp span) {
	for ch, c := range cs {
		for k := sp.from[ch]; k < sp.to[ch]; k++ {
			t.spans = append(t.spans,
				traceSpan{"client.send", ch, k, int64(c.sendAt[k]), int64(c.sendTo[k])},
				traceSpan{"client.wait", ch, k, int64(c.sendTo[k]), int64(c.readAt[k])})
		}
	}
}

// mean returns the mean self time of a layer's spans in µs.
func (t *tracer) mean(name string) float64 {
	var sum int64
	var n int
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / 1e3 / float64(n)
}

// selfTimes totals each layer's self time.
func (t *tracer) selfTimes() map[string][2]float64 {
	out := map[string][2]float64{}
	for _, s := range t.spans {
		v := out[s.Name]
		v[0]++
		v[1] += float64(s.End-s.Start) / 1e6
		out[s.Name] = v
	}
	return out
}

// promSample is one parsed /metrics scrape (bucket lines dropped).
type promSample map[string]float64

func (a promSample) delta(b promSample) promSample {
	out := promSample{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func (a promSample) ratio(num, den string) float64 {
	if a[den] == 0 {
		return 0
	}
	return a[num] / a[den]
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scraper polls /metrics and /channels.
type scraper struct {
	addr  string
	epoch time.Time
	mu    sync.Mutex
	log   []scrapeRecord
}

type scrapeRecord struct {
	Label    string          `json:"label"`
	AtMs     float64         `json:"at_ms"`
	Metrics  promSample      `json:"metrics"`
	Channels json.RawMessage `json:"channels"`
}

func (s *scraper) scrape(label string) (promSample, error) {
	at := time.Since(s.epoch)
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	m, err := parseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp, err = http.Get("http://" + s.addr + "/channels")
	if err != nil {
		return nil, err
	}
	ch, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.log = append(s.log, scrapeRecord{label, float64(at) / 1e6, m, ch})
	s.mu.Unlock()
	return m, nil
}

func (s *scraper) loop(stop chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if _, err := s.scrape("1hz"); err != nil {
				logf("scrape: %v", err)
			}
		}
	}
}

// writeTrace writes the span file, the scrape log and the per-layer report
// under <work>/trace/, and prints the table and stage budget to stderr.
func (r *run) writeTrace(tr *tracer, m layerMetrics, sc *scraper, fin finished, perShard map[int]uint64) error {
	dir := filepath.Join(filepath.Dir(r.dir), "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.wl.name, r.seed))
	if err := writeJSONL(stem+".spans.jsonl", len(tr.spans), func(i int) interface{} { return tr.spans[i] }); err != nil {
		return err
	}
	if err := writeJSONL(stem+".scrapes.jsonl", len(sc.log), func(i int) interface{} { return sc.log[i] }); err != nil {
		return err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload %s seed %d\nenvironment %v\nchannels %v on shards %v; observed per shard %v\noffered sha256 %s\n\n",
		r.wl.name, r.seed, r.env, r.pl.ids, fin.shards, perShard, r.pl.sum())
	fmt.Fprintf(&b, "%-30s %14s %-9s\n", "per-layer metric", "value", "unit")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-30s %14.4f %-9s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(&b, "\n%-24s %9s %14s %12s\n", "span (self time)", "count", "total ms", "mean us")
	self := tr.selfTimes()
	layers := make([]string, 0, len(self))
	for k := range self {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, k := range layers {
		v := self[k]
		fmt.Fprintf(&b, "%-24s %9.0f %14.3f %12.3f\n", k, v[0], v[1], 1e3*v[1]/v[0])
	}
	wait := m["client.wait_us"].Value
	stages := []struct {
		name string
		us   float64
	}{
		{"serve.queue_wait_us", m["serve.queue_wait_us"].Value},
		{"serve.score_us_per_seg", m["serve.score_us_per_seg"].Value},
		{"wal.fsync_us", 0}, // the daemon runs without a journal (see workloads)
	}
	sum, top := 0.0, stages[0]
	for _, s := range stages {
		sum += s.us
		if s.us > top.us {
			top = s
		}
	}
	fmt.Fprintf(&b, "\nstage-budget %s: client.wait mean %.1fus vs serve.queue_wait_us %.1f + serve.score_us_per_seg %.1f + wal.fsync_us %.1f = %.1fus (%.0f%% of the wait; %.1fus in wire, pumps and loopback); largest measured stage %s\n",
		r.wl.name, wait, stages[0].us, stages[1].us, stages[2].us, sum, 100*sum/wait, wait-sum, top.name)
	fmt.Fprintf(os.Stderr, "%s", b.String())
	return os.WriteFile(stem+".report.txt", []byte(b.String()), 0o644)
}

func writeJSONL(path string, n int, item func(int) interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(item(i)); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
