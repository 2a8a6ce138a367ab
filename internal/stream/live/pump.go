package live

import (
	"errors"
	"fmt"
	"io"

	"aovlis/internal/serve"
)

// Pump is the one ordered ingest loop behind both transports — the
// daemon's NDJSON observe stream and the WebSocket live plane. It keeps
// up to Window observations in flight through the pool's zero-alloc
// SubmitInto path (a fixed ring of recycled outcome channels) and emits
// exactly one decision per message, strictly in message order. A reader
// goroutine feeds messages so the loop can select over {next message,
// oldest outcome}: a decision goes out the moment its outcome resolves.
// Reading inline would park the loop in Read with resolved verdicts stuck
// behind it, and an idle client — or a router that stopped sending while
// it drains acknowledgements for a migration — would wait on decisions
// the pump already had.
//
// A transport supplies only the four hooks. Run calls Read from its own
// goroutine and everything else from the caller's.
type Pump struct {
	Pool    *serve.DetectorPool
	Channel string
	// Window is the submission pipeline depth (≤ 0 → 1): how many
	// observations may be in flight before reads pause.
	Window int

	// Read returns the next message; the slice need only stay valid until
	// the next call. io.EOF ends the input cleanly, any other error ends it
	// as a failure (Run reports it).
	Read func() ([]byte, error)
	// Stop unblocks a Read that may be parked. Run calls it once, at the
	// first failed Emit, so the reader never outlives Run.
	Stop func()
	// Emit delivers message k's decision, in message order, exactly once
	// per message — including after a failed Emit, so the transport can
	// still account for submissions that were in flight. d carries the
	// channel, the verdict (or Error) and WSeq; Seq is the transport's to
	// assign. o is the submission's outcome, nil when the message was
	// refused before reaching the pool (parse error, drop, rejection).
	// Neither pointer may be kept past the call.
	Emit func(d *Decision, o *serve.Outcome) error
	// Idle, when set, runs just before the loop blocks: the hook for a
	// transport that batches writes and flushes them lazily.
	Idle func()
}

// Run pumps until the input ends and every accepted submission has been
// emitted. inErr is the error that ended the input (nil at io.EOF, and
// nil once Run stopped the reader itself); outErr is the first failed
// Emit. The reader goroutine has exited when Run returns.
func (p *Pump) Run() (inErr, outErr error) {
	window := max(p.Window, 1)
	outs := make([]chan serve.Outcome, window)
	for i := range outs {
		outs[i] = make(chan serve.Outcome, 1)
	}
	decs := make([]Decision, window)
	pending := make([]bool, window)
	// Slots [head-inflight, head) are occupied, oldest first.
	head, inflight := 0, 0

	emit := func(s int, o *serve.Outcome) {
		if o != nil {
			pending[s] = false
			d := &decs[s]
			d.WSeq = o.Seq
			if o.Err != nil {
				d.Error = o.Err.Error()
			} else {
				d.Warmup = o.Result.Warmup
				d.Anomaly = o.Result.Anomaly
				d.Score = o.Result.Score
				d.Exact = o.Result.Exact
				d.Path = o.Result.Path
			}
		}
		if err := p.Emit(&decs[s], o); err != nil && outErr == nil {
			outErr = err
			p.Stop()
		}
	}
	var dec ObservationDecoder
	accept := func(msg []byte) {
		d := &decs[head]
		*d = Decision{Channel: p.Channel}
		if obs, err := dec.Decode(msg); err != nil {
			d.Error = fmt.Sprintf("bad observation line: %v", err)
		} else {
			err := p.Pool.SubmitInto(p.Channel, obs.Action, obs.Audience, outs[head])
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				// Admission rejection and DropNewest overflow share the
				// sentinel; the admission state tells the client which one
				// it was (rejected ⇒ back off and retry).
				if p.Pool.AdmissionState() == serve.AdmitReject {
					d.Rejected = true
				} else {
					d.Dropped = true
				}
			case err != nil:
				d.Error = err.Error()
			default:
				pending[head] = true
			}
		}
		head = (head + 1) % window
		inflight++
	}

	// Message buffers recycle through free: at most one is held by the
	// reader and one by the loop, so returning a buffer never blocks.
	msgs := make(chan []byte)
	free := make(chan []byte, 2)
	for i := 0; i < cap(free); i++ {
		free <- make([]byte, 0, 512)
	}
	quit := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer close(msgs)
		for {
			msg, err := p.Read()
			if err != nil {
				if err != io.EOF {
					inErr = err // happens-before readerDone's close
				}
				return
			}
			var buf []byte
			select {
			case buf = <-free:
			case <-quit:
				return
			}
			select {
			case msgs <- append(buf[:0], msg...):
			case <-quit:
				return
			}
		}
	}()

	// One outcome variable for the whole run: its address goes to Emit, so
	// a per-iteration variable would cost a heap allocation per message.
	var result serve.Outcome
	for open := true; (open && outErr == nil) || inflight > 0; {
		oldest := (head + window - inflight) % window
		if inflight > 0 && !pending[oldest] {
			// Refused at submit time: nothing to wait for.
			emit(oldest, nil)
			inflight--
			continue
		}
		in := msgs
		if !open || outErr != nil || inflight == window {
			in = nil // only an outcome can make progress
		}
		var out chan serve.Outcome
		if inflight > 0 {
			out = outs[oldest] // pending[oldest] holds here
		}
		var (
			msg   []byte
			isMsg bool
			msgOK bool
		)
		select {
		case msg, msgOK = <-in:
			isMsg = true
		case result = <-out:
		default:
			// in and out cannot both be nil here: that needs a closed (or
			// abandoned) input and an empty window, which ends the loop.
			if p.Idle != nil {
				p.Idle()
			}
			select {
			case msg, msgOK = <-in:
				isMsg = true
			case result = <-out:
			}
		}
		switch {
		case !isMsg:
			emit(oldest, &result)
			inflight--
		case !msgOK:
			open = false
		default:
			accept(msg)
			free <- msg
		}
	}
	close(quit)
	<-readerDone
	if outErr != nil {
		inErr = nil // the reader ended because Stop cut it off
	}
	return inErr, outErr
}
