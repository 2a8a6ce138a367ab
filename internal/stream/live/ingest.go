package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"aovlis/internal/serve"
)

// Observation is one inbound observation: a live WebSocket message, and
// equally one line of the daemon's NDJSON observe stream.
type Observation struct {
	Action   []float64 `json:"action"`
	Audience []float64 `json:"audience"`
}

// Decision is one outbound live message. The field set mirrors the
// aovlisd NDJSON decision line (and cluster.Decision); the daemon's wire
// pin test holds the three together. Seq is the channel's live decision
// sequence — equal to WSeq whenever the pool journals — and 0 on lines
// that were NOT accepted (parse errors, drops, rejections), which a
// client may therefore resend.
type Decision struct {
	Channel  string  `json:"channel"`
	Seq      uint64  `json:"seq"`
	Warmup   bool    `json:"warmup,omitempty"`
	Anomaly  bool    `json:"anomaly"`
	Score    float64 `json:"score"`
	Exact    bool    `json:"exact"`
	Path     string  `json:"path,omitempty"`
	WSeq     uint64  `json:"wseq,omitempty"`
	Dropped  bool    `json:"dropped,omitempty"`
	Rejected bool    `json:"rejected,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// ResumeHeader carries the channel's accepted floor on the 101 response;
// LastSeqHeader carries the client's replay cursor on the request.
const (
	ResumeHeader  = "X-Aovlis-Resume"
	LastSeqHeader = "Last-Seq"
)

// IngestHandler serves /live/{channel}: it upgrades the connection,
// replays ring decisions above the client's Last-Seq, then pumps
// observations into the pool's zero-alloc SubmitInto path with a
// pipelining window, streaming decisions back strictly in message order.
type IngestHandler struct {
	Pool *serve.DetectorPool
	Hub  *Hub
	// Ensure creates the channel on first use (nil → the channel must
	// already be attached).
	Ensure func(id string) error
	// Window is the submission pipeline depth (≤ 0 → 1): how many
	// observations may be in flight before reads pause — the live analogue
	// of the observe handler's obsWindow.
	Window int
	// MaxMessage caps one WebSocket message (0 → DefaultMaxMessage).
	MaxMessage int
	// Prefix is the mount path prefix (default "/live/").
	Prefix string
}

func (h *IngestHandler) prefix() string {
	if h.Prefix == "" {
		return "/live/"
	}
	return h.Prefix
}

// ServeHTTP implements the endpoint.
func (h *IngestHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, h.prefix())
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "want /live/{channel}", http.StatusNotFound)
		return
	}
	var lastSeq uint64
	if v := r.Header.Get(LastSeqHeader); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad Last-Seq header", http.StatusBadRequest)
			return
		}
		lastSeq = n
	}
	if h.Ensure != nil {
		if err := h.Ensure(id); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	} else if _, err := h.Pool.Stats(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	// Fail fast while overloaded, before the upgrade: a 429 + Retry-After
	// is cheaper for both sides than an upgrade followed by a close.
	if h.Pool.AdmissionState() == serve.AdmitReject {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "pool overloaded (admission reject), retry later", http.StatusTooManyRequests)
		return
	}
	sess, err := h.Hub.Acquire(id)
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrChannelBusy) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	// The accepted floor: everything the hub has ringed, raised to the WAL
	// applied floor after a restart emptied the ring. The client must not
	// resend at or below it — those segments are journaled and applied.
	floor := sess.Last()
	if a := h.Pool.AppliedSeq(id); a > floor {
		floor = a
	}
	if lastSeq > floor {
		// The client claims decisions this server never issued — a channel
		// that restarted without a journal. Refuse instead of silently
		// splicing two incompatible sequence spaces.
		sess.Release()
		w.Header().Set(ResumeHeader, strconv.FormatUint(floor, 10))
		http.Error(w, fmt.Sprintf("Last-Seq %d ahead of server floor %d; reset the stream", lastSeq, floor),
			http.StatusConflict)
		return
	}
	conn, err := Upgrade(w, r, &Options{
		MaxMessage: h.MaxMessage,
		Header:     http.Header{ResumeHeader: []string{strconv.FormatUint(floor, 10)}},
	})
	if err != nil {
		sess.Release()
		return
	}
	sess.Bind(conn)
	defer sess.Release()
	defer conn.Close()

	// Replay the decisions the previous connection lost in flight.
	if err := sess.Replay(lastSeq, func(seq uint64, payload []byte) error {
		return conn.WriteMessage(OpText, payload)
	}); err != nil {
		return
	}
	h.pump(conn, sess, id, floor)
}

// pump is the live counterpart of the daemon's NDJSON observe loop: a
// reader goroutine feeds messages, the driver selects over {next message,
// oldest outcome} so decisions stream out the moment they resolve, and
// the fixed ring of recycled outcome channels keeps the per-message cost
// allocation-free on the submit side.
func (h *IngestHandler) pump(conn *Conn, sess *Session, id string, floor uint64) {
	window := h.Window
	if window < 1 {
		window = 1
	}
	outs := make([]chan serve.Outcome, window)
	for i := range outs {
		outs[i] = make(chan serve.Outcome, 1)
	}
	decs := make([]Decision, window)
	pending := make([]bool, window)
	head, inflight := 0, 0
	nextSeq := floor // last assigned; used when the pool runs journal-less

	// record assigns the decision's accepted seq and rings it; callers
	// then deliver it (live write or resume replay after reconnect).
	record := func(s int, o serve.Outcome) ([]byte, error) {
		pending[s] = false
		d := &decs[s]
		d.WSeq = o.Seq
		if o.Err != nil {
			d.Error = o.Err.Error()
			b, err := json.Marshal(d)
			return b, err
		}
		if o.Seq != 0 {
			d.Seq = o.Seq
		} else {
			nextSeq++
			d.Seq = nextSeq
		}
		d.Warmup = o.Result.Warmup
		d.Anomaly = o.Result.Anomaly
		d.Score = o.Result.Score
		d.Exact = o.Result.Exact
		d.Path = o.Result.Path
		b, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		return b, sess.Append(d.Seq, b)
	}
	defer func() {
		// Drain every in-flight submission (their segments are queued on
		// the shard regardless of how this handler exits) and ring their
		// decisions: the floor a reconnect sees must cover them, or the
		// client would resend accepted segments.
		for ; inflight > 0; inflight-- {
			oldest := (head + window - inflight) % window
			if pending[oldest] {
				record(oldest, <-outs[oldest])
			}
		}
	}()

	msgCh := make(chan []byte)
	msgFree := make(chan []byte, 2)
	for i := 0; i < cap(msgFree); i++ {
		msgFree <- make([]byte, 0, 512)
	}
	quit := make(chan struct{})
	readerDone := make(chan struct{})
	// Registered before the drain defer runs (LIFO): stop the reader —
	// closing the connection unblocks a parked ReadMessage, quit unblocks
	// a parked channel send — and only then drain outcomes.
	defer func() {
		close(quit)
		conn.Close()
		<-readerDone
	}()
	go func() {
		defer close(readerDone)
		defer close(msgCh)
		for {
			_, msg, err := conn.ReadMessage()
			if err != nil {
				return
			}
			var buf []byte
			select {
			case buf = <-msgFree:
			case <-quit:
				return
			}
			select {
			case msgCh <- append(buf[:0], msg...):
			case <-quit:
				return
			}
		}
	}()

	var dec ObservationDecoder
	accept := func(msg []byte) error {
		decs[head] = Decision{Channel: id}
		if obs, err := dec.Decode(msg); err != nil {
			decs[head].Error = fmt.Sprintf("bad observation: %v", err)
		} else {
			err := h.Pool.SubmitInto(id, obs.Action, obs.Audience, outs[head])
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				if h.Pool.AdmissionState() == serve.AdmitReject {
					decs[head].Rejected = true
				} else {
					decs[head].Dropped = true
				}
			case err != nil:
				decs[head].Error = err.Error()
			default:
				pending[head] = true
			}
		}
		head = (head + 1) % window
		inflight++
		return nil
	}
	writeOldest := func(oldest int, o serve.Outcome, resolved bool) bool {
		var payload []byte
		var err error
		if resolved {
			payload, err = record(oldest, o)
		} else {
			// Refused at submit time: seq stays 0, nothing ringed.
			payload, err = json.Marshal(&decs[oldest])
		}
		if err != nil {
			return false
		}
		return conn.WriteMessage(OpText, payload) == nil
	}

	for open := true; open || inflight > 0; {
		oldest := (head + window - inflight) % window
		if inflight > 0 && !pending[oldest] {
			if !writeOldest(oldest, serve.Outcome{}, false) {
				return
			}
			inflight--
			continue
		}
		in := msgCh
		if !open || inflight == window {
			in = nil
		}
		var out chan serve.Outcome
		if inflight > 0 {
			out = outs[oldest]
		}
		select {
		case msg, ok := <-in:
			if !ok {
				open = false
				continue
			}
			if err := accept(msg); err != nil {
				return
			}
			msgFree <- msg
		case o := <-out:
			if !writeOldest(oldest, o, true) {
				return
			}
			inflight--
		}
	}
	// Clean end of stream: the client closed (or broke) the connection;
	// finish the close handshake if it is still up.
	conn.WriteClose(CloseNormal, "")
}
