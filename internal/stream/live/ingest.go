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

// Decision is one outbound decision: a live WebSocket message, equally
// one line of the daemon's NDJSON observe stream and of the router's
// relay. On the live plane Seq is the channel's live decision sequence —
// equal to WSeq whenever the pool journals — and 0 on messages that were
// NOT accepted (parse errors, drops, rejections), which a client may
// therefore resend; on NDJSON it is the line's ordinal in its request.
type Decision struct {
	Channel string  `json:"channel"`
	Seq     uint64  `json:"seq"`
	Warmup  bool    `json:"warmup,omitempty"`
	Anomaly bool    `json:"anomaly"`
	Score   float64 `json:"score"`
	Exact   bool    `json:"exact"`
	Path    string  `json:"path,omitempty"`
	// WSeq is the observation's WAL sequence on the scoring node (0
	// without a journal). A router records the highest wseq it has relayed
	// per channel: exactly the journal suffix it must replay to the new
	// owner when that node dies.
	WSeq uint64 `json:"wseq,omitempty"`
	// Dropped marks a DropNewest queue overflow; Rejected marks a message
	// refused by admission control (the pool was past its reject
	// watermark) — retry later.
	Dropped  bool   `json:"dropped,omitempty"`
	Rejected bool   `json:"rejected,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ResumeHeader carries the channel's accepted floor on the 101 response;
// LastSeqHeader carries the client's replay cursor on the request.
const (
	ResumeHeader  = "X-Aovlis-Resume"
	LastSeqHeader = "Last-Seq"
)

// IngestHandler serves /live/{channel}: it upgrades the connection,
// replays ring decisions above the client's Last-Seq, then runs a Pump
// over the connection, streaming decisions back strictly in message order.
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

// pump adapts the WebSocket connection to the shared Pump. Accepted
// decisions get the channel's live seq and are ringed before the write,
// so the floor a reconnect sees covers every accepted segment — including
// the ones still in flight when the connection broke; refusals keep seq 0
// and are never ringed.
func (h *IngestHandler) pump(conn *Conn, sess *Session, id string, floor uint64) {
	nextSeq := floor // last assigned; used when the pool runs journal-less
	p := Pump{
		Pool:    h.Pool,
		Channel: id,
		Window:  h.Window,
		Read: func() ([]byte, error) {
			_, msg, err := conn.ReadMessage()
			return msg, err
		},
		Stop: func() { conn.Close() },
		Emit: func(d *Decision, o *serve.Outcome) error {
			accepted := o != nil && o.Err == nil
			if accepted {
				if o.Seq != 0 {
					d.Seq = o.Seq
				} else {
					nextSeq++
					d.Seq = nextSeq
				}
			}
			b, err := json.Marshal(d)
			if err != nil {
				return err
			}
			if accepted {
				if err := sess.Append(d.Seq, b); err != nil {
					return err
				}
			}
			return conn.WriteMessage(OpText, b)
		},
	}
	if _, outErr := p.Run(); outErr == nil {
		// Clean end of stream: the client closed (or broke) the
		// connection; finish the close handshake if it is still up.
		conn.WriteClose(CloseNormal, "")
	}
}
