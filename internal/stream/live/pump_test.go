package live

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aovlis"
	"aovlis/internal/serve"
)

// indexDetector scores each observation with its audience[0] — the test's
// message index — and fails any whose action[0] is negative, so every
// emitted decision names the message it answers.
type indexDetector struct{}

func (indexDetector) Observe(action, audience []float64) (aovlis.Result, error) {
	if action[0] < 0 {
		return aovlis.Result{}, fmt.Errorf("fake: poisoned segment")
	}
	return aovlis.Result{Score: audience[0], Exact: true, Path: "fake"}, nil
}

// Message k of a pump test stream is bad JSON when k%5 == 1, a detector
// error when k%5 == 3, and an accepted observation scoring k otherwise.
func testMessage(k int) []byte {
	switch k % 5 {
	case 1:
		return []byte("{not json")
	case 3:
		return []byte(fmt.Sprintf(`{"action":[-1],"audience":[%d]}`, k))
	default:
		return []byte(fmt.Sprintf(`{"action":[1],"audience":[%d]}`, k))
	}
}

// fakeTransport serves msgs, then either ends with end (io.EOF by
// default) or, with park set, parks Read until Stop.
type fakeTransport struct {
	msgs   [][]byte
	end    error
	park   bool
	failAt int // index of the Emit that fails (-1: none)

	next     int
	parked   chan struct{}
	unparked atomic.Bool
	stops    atomic.Int32
	emits    []emitted
}

type emitted struct {
	d        Decision
	accepted bool
}

var errEmit = errors.New("fake: emit failed")

func newFakeTransport(n int) *fakeTransport {
	tr := &fakeTransport{failAt: -1, end: io.EOF, parked: make(chan struct{})}
	for k := 0; k < n; k++ {
		tr.msgs = append(tr.msgs, testMessage(k))
	}
	return tr
}

func (tr *fakeTransport) pump(pool *serve.DetectorPool, window int) *Pump {
	return &Pump{
		Pool:    pool,
		Channel: "p",
		Window:  window,
		Read: func() ([]byte, error) {
			if tr.next < len(tr.msgs) {
				tr.next++
				return tr.msgs[tr.next-1], nil
			}
			if tr.park {
				<-tr.parked
				tr.unparked.Store(true)
				return nil, errors.New("fake: read cut off")
			}
			return nil, tr.end
		},
		Stop: func() {
			if tr.stops.Add(1) == 1 {
				close(tr.parked)
			}
		},
		Emit: func(d *Decision, o *serve.Outcome) error {
			tr.emits = append(tr.emits, emitted{d: *d, accepted: o != nil})
			if len(tr.emits)-1 == tr.failAt {
				return errEmit
			}
			return nil
		},
	}
}

func newPumpPool(t *testing.T) *serve.DetectorPool {
	t.Helper()
	pool, err := serve.NewDetectorPool(serve.Config{Shards: 1, QueueDepth: 64, Policy: serve.Block})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	if err := pool.Attach("p", indexDetector{}); err != nil {
		t.Fatal(err)
	}
	return pool
}

// runPump runs p.Run under a watchdog.
func runPump(t *testing.T, p *Pump) (inErr, outErr error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		inErr, outErr = p.Run()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Pump.Run did not return")
	}
	return inErr, outErr
}

// checkEmits asserts emits[k] answers message k, for every emit.
func checkEmits(t *testing.T, emits []emitted) {
	t.Helper()
	for k, e := range emits {
		if e.d.Channel != "p" || e.d.Seq != 0 {
			t.Fatalf("emit %d: channel %q seq %d, want p and a transport-assigned seq", k, e.d.Channel, e.d.Seq)
		}
		switch k % 5 {
		case 1:
			if e.accepted || !strings.Contains(e.d.Error, "bad observation line") {
				t.Fatalf("emit %d should be a refused parse error: %+v (outcome %v)", k, e.d, e.accepted)
			}
		case 3:
			if !e.accepted || !strings.Contains(e.d.Error, "poisoned") {
				t.Fatalf("emit %d should be an accepted detector error: %+v (outcome %v)", k, e.d, e.accepted)
			}
		default:
			if !e.accepted || e.d.Error != "" || e.d.Score != float64(k) || e.d.Path != "fake" {
				t.Fatalf("emit %d out of order or malformed: %+v (outcome %v)", k, e.d, e.accepted)
			}
		}
	}
}

// TestPumpEmitsEveryMessageInOrder: one Emit per message, in message
// order, with a nil outcome exactly for the refusals — at window 1 and 4.
func TestPumpEmitsEveryMessageInOrder(t *testing.T) {
	for _, window := range []int{1, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			tr := newFakeTransport(23)
			inErr, outErr := runPump(t, tr.pump(newPumpPool(t), window))
			if inErr != nil || outErr != nil {
				t.Fatalf("Run = %v, %v on a clean stream", inErr, outErr)
			}
			if len(tr.emits) != len(tr.msgs) {
				t.Fatalf("%d emits for %d messages", len(tr.emits), len(tr.msgs))
			}
			checkEmits(t, tr.emits)
			if n := tr.stops.Load(); n != 0 {
				t.Fatalf("Stop called %d times on a clean end of input", n)
			}
		})
	}
}

// TestPumpReadErrorReported: an input failure still emits everything read
// before it, and Run reports it as inErr.
func TestPumpReadErrorReported(t *testing.T) {
	tr := newFakeTransport(7)
	tr.end = errors.New("fake: line too long")
	inErr, outErr := runPump(t, tr.pump(newPumpPool(t), 4))
	if inErr != tr.end || outErr != nil {
		t.Fatalf("Run = %v, %v, want the read error and no emit error", inErr, outErr)
	}
	if len(tr.emits) != len(tr.msgs) {
		t.Fatalf("%d emits for %d messages", len(tr.emits), len(tr.msgs))
	}
	checkEmits(t, tr.emits)
}

// TestPumpEmitFailureDrainsInFlight: after an Emit fails at message k the
// pump reads nothing more, but every submission already accepted still
// reaches Emit exactly once, in order, and Run returns.
func TestPumpEmitFailureDrainsInFlight(t *testing.T) {
	for _, window := range []int{1, 4} {
		for _, k := range []int{0, 2, 3} {
			t.Run(fmt.Sprintf("window=%d/fail=%d", window, k), func(t *testing.T) {
				pool := newPumpPool(t)
				tr := newFakeTransport(40)
				tr.park = true
				tr.failAt = k
				inErr, outErr := runPump(t, tr.pump(pool, window))
				if inErr != nil || outErr != errEmit {
					t.Fatalf("Run = %v, %v, want nil and the emit error", inErr, outErr)
				}
				if n := tr.stops.Load(); n != 1 {
					t.Fatalf("Stop called %d times, want once", n)
				}
				if len(tr.emits) <= k || len(tr.emits) > k+window {
					t.Fatalf("%d emits after a failure at %d with window %d", len(tr.emits), k, window)
				}
				checkEmits(t, tr.emits)
				accepted := 0
				for _, e := range tr.emits {
					if e.accepted {
						accepted++
					}
				}
				st, err := pool.Stats("p")
				if err != nil {
					t.Fatal(err)
				}
				if scored := int(st.Observed + st.Errors); scored != accepted {
					t.Fatalf("pool scored %d submissions, %d reached Emit with an outcome", scored, accepted)
				}
			})
		}
	}
}

// TestPumpStopUnblocksParkedRead: with Read parked for good, a failed
// Emit's Stop is what releases it, and no pump goroutine survives Run.
func TestPumpStopUnblocksParkedRead(t *testing.T) {
	tr := newFakeTransport(1)
	tr.park = true
	tr.failAt = 0
	if _, outErr := runPump(t, tr.pump(newPumpPool(t), 4)); outErr != errEmit {
		t.Fatalf("outErr = %v, want the emit error", outErr)
	}
	if !tr.unparked.Load() {
		t.Fatal("Run returned while Read was still parked")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "live.(*Pump).Run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a pump goroutine outlived Run:\n%.4000s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
}
