package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aovlis/internal/stream/live"
)

// conn is one open-loop stream: a writer that sends each segment at its
// due time whatever came back, and a dedicated reader that timestamps each
// decision the moment it arrives. Decisions come back in send order, so the
// k-th decision answers the k-th segment sent.
type conn struct {
	ch    int
	id    string
	ws    *live.Conn // WebSocket transport, or
	nc    net.Conn   // raw HTTP/1.1 chunked NDJSON transport
	frame [][]byte   // pre-encoded wire bytes per world segment

	sent, recv atomic.Int64

	// Writer-owned, read by the run after a phase's writers return.
	due    []time.Duration // scheduled send time, from the run epoch
	sendAt []time.Duration // actual write start
	sendTo []time.Duration // write return (client.send span end)
	idx    []int32         // world segment per sent segment
	wbuf   []byte

	// Reader-owned, read by the run once recv shows they are complete.
	readAt  []time.Duration
	raw     []byte
	rawEnd  []int
	readErr error
	done    chan struct{}
}

// dialConns opens the two streams of a run.
func dialConns(addr string, ws bool, ids [2]string, w *world, epoch time.Time, maskSeed int64) ([2]*conn, error) {
	var cs [2]*conn
	for ch := range cs {
		c := &conn{ch: ch, id: ids[ch], done: make(chan struct{})}
		var err error
		if ws {
			c.ws, _, err = live.Dial("http://"+addr+"/live/"+c.id, nil)
			if err == nil {
				// Frames are masked with a fixed per-connection key (RFC 6455
				// allows any key) and pre-encoded once.
				key := [4]byte{byte(maskSeed), byte(maskSeed >> 8), byte(ch + 1), 0x5a}
				for _, m := range w.msg {
					c.frame = append(c.frame, live.Frame{Fin: true, Op: live.OpText, Masked: true, MaskKey: key, Payload: m}.Append(nil))
				}
			}
		} else {
			c.nc, err = net.Dial("tcp", addr)
			if err == nil {
				_, err = fmt.Fprintf(c.nc, "POST /channels/%s/observe HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n", c.id, addr)
				for _, m := range w.msg {
					b := strconv.AppendInt(nil, int64(len(m)+1), 16)
					b = append(b, "\r\n"...)
					b = append(b, m...)
					c.frame = append(c.frame, append(b, "\n\r\n"...))
				}
			}
		}
		if err != nil {
			for _, o := range cs {
				if o != nil {
					o.close(time.Second)
				}
			}
			return cs, fmt.Errorf("connecting stream %s: %w", c.id, err)
		}
		go c.read(epoch)
		cs[ch] = c
	}
	return cs, nil
}

// read is the dedicated reader: it records each decision's arrival time
// and raw bytes and nothing else.
func (c *conn) read(epoch time.Time) {
	defer close(c.done)
	keep := func(b []byte) {
		c.readAt = append(c.readAt, time.Since(epoch))
		c.raw = append(c.raw, b...)
		c.rawEnd = append(c.rawEnd, len(c.raw))
		c.recv.Add(1)
	}
	if c.ws != nil {
		for {
			_, msg, err := c.ws.ReadMessage()
			if err != nil {
				c.readErr = err
				return
			}
			keep(msg)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReaderSize(c.nc, 64<<10), nil)
	if err != nil {
		c.readErr = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.readErr = fmt.Errorf("observe stream: HTTP %s", resp.Status)
		return
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err != io.EOF {
				c.readErr = err
			}
			return
		}
		keep(line[:len(line)-1])
	}
}

// decision returns the raw bytes of the k-th decision.
func (c *conn) decision(k int) []byte {
	lo := 0
	if k > 0 {
		lo = c.rawEnd[k-1]
	}
	return c.raw[lo:c.rawEnd[k]]
}

// send writes arr (this connection's arrivals of one phase) open-loop:
// each segment is written at start+at, or at once if already late; all
// segments due by the time the writer wakes go out in one write. It
// returns the largest in-flight count (sent, not yet decided) it saw.
func (c *conn) send(arr []arrival, start time.Time, epoch time.Time) (inflightMax int64, err error) {
	base := start.Sub(epoch)
	for i := 0; i < len(arr); {
		now := time.Since(start)
		if wait := arr[i].at - now; wait > 0 {
			time.Sleep(wait)
			continue
		}
		c.wbuf = c.wbuf[:0]
		j := i
		for ; j < len(arr) && arr[j].at <= now; j++ {
			c.wbuf = append(c.wbuf, c.frame[arr[j].idx]...)
		}
		t0 := time.Since(epoch)
		for k := i; k < j; k++ {
			c.due = append(c.due, base+arr[k].at)
			c.sendAt = append(c.sendAt, t0)
			c.idx = append(c.idx, arr[k].idx)
		}
		n := c.sent.Add(int64(j - i))
		if c.ws != nil {
			err = c.ws.WriteRaw(c.wbuf)
		} else {
			_, err = c.nc.Write(c.wbuf)
		}
		t1 := time.Since(epoch)
		for k := i; k < j; k++ {
			c.sendTo = append(c.sendTo, t1)
		}
		if err != nil {
			return inflightMax, fmt.Errorf("stream %s: write: %w", c.id, err)
		}
		if in := n - c.recv.Load(); in > inflightMax {
			inflightMax = in
		}
		i = j
	}
	return inflightMax, nil
}

// drain waits until every segment sent has its decision.
func drain(cs [2]*conn, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, c := range cs {
		for c.recv.Load() < c.sent.Load() {
			select {
			case <-c.done:
				return fmt.Errorf("stream %s ended with %d of %d decisions: %v", c.id, c.recv.Load(), c.sent.Load(), c.readErr)
			case <-time.After(500 * time.Microsecond):
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stream %s: %d decisions missing after %s", c.id, c.sent.Load()-c.recv.Load(), timeout)
			}
		}
	}
	return nil
}

// close ends the stream cleanly (WebSocket close / last chunk), waits for
// the reader to finish, and closes the connection.
func (c *conn) close(timeout time.Duration) {
	if c.ws != nil {
		c.ws.WriteClose(live.CloseNormal, "")
	} else {
		c.nc.Write([]byte("0\r\n\r\n"))
	}
	select {
	case <-c.done:
	case <-time.After(timeout):
	}
	if c.ws != nil {
		c.ws.Close()
	} else {
		c.nc.Close()
	}
	<-c.done
}

// span is a [from, to) range of one connection's sent segments.
type span struct{ from, to [2]int }

// phaseStats is what one phase's offering saw.
type phaseStats struct {
	sp span
	// inflightMax is the largest per-connection count of segments sent
	// but not yet decided; backlog is the total of that count over both
	// connections when the last segment of the phase was written.
	inflightMax, backlog int64
}

// phaseRun offers arr on both connections and waits for every decision.
func phaseRun(cs [2]*conn, arr []arrival, epoch time.Time, drainTimeout time.Duration) (phaseStats, error) {
	var ps phaseStats
	sp := &ps.sp
	var split [2][]arrival
	for _, a := range arr {
		split[a.ch] = append(split[a.ch], a)
	}
	for ch, c := range cs {
		sp.from[ch] = int(c.sent.Load())
	}
	start := time.Now().Add(time.Millisecond)
	var (
		wg   sync.WaitGroup
		errs [2]error
		infl [2]int64
	)
	for ch := range cs {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			infl[ch], errs[ch] = cs[ch].send(split[ch], start, epoch)
		}(ch)
	}
	wg.Wait()
	for _, c := range cs {
		ps.backlog += c.sent.Load() - c.recv.Load()
	}
	ps.inflightMax = max(infl[0], infl[1])
	for _, err := range errs {
		if err != nil {
			return ps, err
		}
	}
	if err := drain(cs, drainTimeout); err != nil {
		return ps, err
	}
	for ch, c := range cs {
		sp.to[ch] = int(c.sent.Load())
	}
	return ps, nil
}

// latencies returns due→decision-read times of the span's segments in ms.
func latencies(cs [2]*conn, sp span) []float64 {
	var out []float64
	for ch, c := range cs {
		for k := sp.from[ch]; k < sp.to[ch]; k++ {
			out = append(out, float64(c.readAt[k]-c.due[k])/1e6)
		}
	}
	return out
}
