package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// sseReader parses a text/event-stream body frame by frame. The
// returned slices are reused by the next call.
type sseReader struct {
	br    *bufio.Reader
	event []byte
	data  []byte
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// next reads one frame — field lines up to a blank line — and returns
// its event name, its data (multiple data lines joined by '\n') and the
// bytes it occupied on the stream. Comment lines and unknown fields are
// skipped; a frame with no fields at all (a stray blank line) is not
// returned. io.EOF in the middle of a frame is io.ErrUnexpectedEOF.
func (s *sseReader) next() (event, data []byte, n int, err error) {
	s.event, s.data = s.event[:0], s.data[:0]
	fields := 0
	for {
		line, err := s.br.ReadSlice('\n')
		n += len(line)
		if err != nil {
			if err == io.EOF && (fields > 0 || len(line) > 0) {
				err = io.ErrUnexpectedEOF
			}
			return nil, nil, n, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			if fields == 0 {
				continue
			}
			return s.event, s.data, n, nil
		}
		name, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimPrefix(val, []byte(" "))
		switch string(name) {
		case "event":
			s.event = append(s.event[:0], val...)
			fields++
		case "data":
			if len(s.data) > 0 {
				s.data = append(s.data, '\n')
			}
			s.data = append(s.data, val...)
			fields++
		}
	}
}

// sseConn is one GET /events connection up to and including the hello
// frame the gateway sends on subscribe.
type sseConn struct {
	resp      *http.Response
	rd        *sseReader
	firstByte time.Duration // request → first byte of the body
}

// openSSE issues GET url and reads the hello frame.
func openSSE(client *http.Client, url string) (*sseConn, error) {
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	c := &sseConn{resp: resp, rd: newSSEReader(resp.Body)}
	if _, err := c.rd.br.Peek(1); err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: first byte: %w", url, err)
	}
	c.firstByte = time.Since(t0)
	event, _, _, err := c.rd.next()
	if err != nil || string(event) != "hello" {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: want a hello frame, got %q (%v)", url, event, err)
	}
	return c, nil
}

func (c *sseConn) close() { c.resp.Body.Close() }

// subscriber is a long-lived SSE client counting the frames it parses.
type subscriber struct {
	conn   *sseConn
	frames atomic.Int64
	bytes  atomic.Int64
	lastNS atomic.Int64 // receipt of the latest frame, ns since epoch
	target atomic.Int64 // frames to wait for; 0 until known
	epoch  time.Time
	// recv holds every frame's receipt time (ns since epoch); read only
	// after exited is closed.
	recv    []int64
	reached chan struct{} // closed when frames first reaches target
	exited  chan struct{} // closed when the read loop returns
	err     error         // why the loop returned; read after exited
}

func startSubscriber(conn *sseConn, epoch time.Time) *subscriber {
	s := &subscriber{conn: conn, epoch: epoch,
		reached: make(chan struct{}), exited: make(chan struct{})}
	go s.loop()
	return s
}

func (s *subscriber) loop() {
	defer close(s.exited)
	signalled := false
	for {
		_, _, n, err := s.conn.rd.next()
		if err != nil {
			s.err = err
			return
		}
		now := int64(time.Since(s.epoch))
		s.recv = append(s.recv, now)
		s.bytes.Add(int64(n))
		s.lastNS.Store(now)
		got := s.frames.Add(1)
		if t := s.target.Load(); !signalled && t > 0 && got >= t {
			signalled = true
			close(s.reached)
		}
	}
}

// await blocks until the subscriber has parsed want frames, it stopped
// early (an evicted or dropped connection), or the deadline passes.
func (s *subscriber) await(want int64, deadline time.Duration) error {
	s.target.Store(want)
	if s.frames.Load() >= want {
		return nil
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-s.reached:
		return nil
	case <-s.exited:
		return fmt.Errorf("stream ended after %d of %d frames: %v", s.frames.Load(), want, s.err)
	case <-timer.C:
		return fmt.Errorf("parsed %d of %d frames before the deadline", s.frames.Load(), want)
	}
}

// stop closes the connection and waits for the read loop to return.
func (s *subscriber) stop() {
	s.conn.close()
	<-s.exited
}
