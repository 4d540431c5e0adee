package main

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memConn is one end of an in-memory, full-duplex connection. Unlike
// net.Pipe, a write does not wait for the peer to read: it lands in the
// direction's buffer (up to queueLimit bytes) and returns, the way a
// socket's send buffer behaves. That lets a handful of driver goroutines
// serve thousands of connections without deadlocking the manager's
// one-writer-per-shard loops. Close, read deadlines and write deadlines
// follow net.Pipe: a local Close fails later calls with io.ErrClosedPipe,
// a remote Close ends reads with io.EOF once the buffer is drained and
// fails writes with io.ErrClosedPipe, and an expired deadline fails the
// call with os.ErrDeadlineExceeded (a net.Error whose Timeout is true).
type memConn struct {
	rx, tx *queue
	rd, wd deadline

	closeOnce sync.Once
	local     chan struct{} // closed by this end's Close
	remote    chan struct{} // closed by the peer's Close

	// onClose, when set, runs once after this end closes.
	onClose func()
}

// queueLimit bounds the bytes buffered in one direction. Protocol
// messages are under 200 bytes and a peer has at most a few in flight,
// so only a peer that stopped reading ever fills it; writes then block
// and their deadline fires, as on a socket whose send buffer is full.
const queueLimit = 16 << 10

// chunk marks the end of one Write in a queue's buffer.
type chunk struct {
	end  int   // offset just past the write's last byte
	enqN int64 // when the write landed, Unix ns
}

// queue is one direction of a memConn: a byte buffer with the boundaries
// of the writes that filled it.
type queue struct {
	mu     sync.Mutex
	buf    []byte
	off    int // read offset into buf
	chunks []chunk
	ci     int // first chunk not yet fully read

	readable chan struct{} // one-token doorbell: data arrived
	writable chan struct{} // one-token doorbell: space freed

	// onWrite runs after every accepted write, outside the lock, with the
	// written bytes.
	onWrite func(p []byte, nowNS int64)
	// onChunk runs when a reader has consumed a whole write.
	onChunk func(c chunk, nowNS int64)
}

func newQueue() *queue {
	return &queue{readable: make(chan struct{}, 1), writable: make(chan struct{}, 1)}
}

func ring(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// newMemPipe returns the two ends of an in-memory connection.
func newMemPipe() (a, b *memConn) {
	ab, ba := newQueue(), newQueue()
	ca, cb := make(chan struct{}), make(chan struct{})
	a = &memConn{rx: ba, tx: ab, local: ca, remote: cb, rd: newDeadline(), wd: newDeadline()}
	b = &memConn{rx: ab, tx: ba, local: cb, remote: ca, rd: newDeadline(), wd: newDeadline()}
	return a, b
}

func closed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Read implements net.Conn.
func (c *memConn) Read(p []byte) (int, error) {
	q := c.rx
	for {
		if closed(c.local) {
			return 0, io.ErrClosedPipe
		}
		if closed(c.rd.wait()) {
			return 0, os.ErrDeadlineExceeded
		}
		q.mu.Lock()
		if q.off < len(q.buf) {
			n := copy(p, q.buf[q.off:])
			q.off += n
			var done []chunk
			for q.ci < len(q.chunks) && q.chunks[q.ci].end <= q.off {
				if q.onChunk != nil {
					done = append(done, q.chunks[q.ci])
				}
				q.ci++
			}
			if q.off == len(q.buf) {
				q.buf, q.off, q.chunks, q.ci = q.buf[:0], 0, q.chunks[:0], 0
			}
			hook := q.onChunk
			q.mu.Unlock()
			ring(q.writable)
			if hook != nil && len(done) > 0 {
				now := time.Now().UnixNano()
				for _, ch := range done {
					hook(ch, now)
				}
			}
			return n, nil
		}
		q.mu.Unlock()
		if closed(c.remote) {
			return 0, io.EOF
		}
		if len(p) == 0 {
			return 0, nil
		}
		select {
		case <-q.readable:
		case <-c.remote:
		case <-c.local:
		case <-c.rd.wait():
			return 0, os.ErrDeadlineExceeded
		}
	}
}

// Write implements net.Conn. A write is accepted whole or not at all.
func (c *memConn) Write(p []byte) (int, error) {
	q := c.tx
	for {
		switch {
		case closed(c.local), closed(c.remote):
			return 0, io.ErrClosedPipe
		case closed(c.wd.wait()):
			return 0, os.ErrDeadlineExceeded
		}
		q.mu.Lock()
		pending := len(q.buf) - q.off
		if pending == 0 || pending+len(p) <= queueLimit {
			if q.off >= queueLimit {
				// A reader that never drains the buffer completely would
				// otherwise let it grow without bound: move the unread
				// bytes, and the writes they belong to, to the front.
				q.buf = q.buf[:copy(q.buf, q.buf[q.off:])]
				q.chunks = q.chunks[:copy(q.chunks, q.chunks[q.ci:])]
				for i := range q.chunks {
					q.chunks[i].end -= q.off
				}
				q.off, q.ci = 0, 0
			}
			now := time.Now().UnixNano()
			q.buf = append(q.buf, p...)
			q.chunks = append(q.chunks, chunk{end: len(q.buf), enqN: now})
			hook := q.onWrite
			q.mu.Unlock()
			ring(q.readable)
			if hook != nil {
				hook(p, now)
			}
			return len(p), nil
		}
		q.mu.Unlock()
		select {
		case <-q.writable:
		case <-c.remote:
		case <-c.local:
		case <-c.wd.wait():
			return 0, os.ErrDeadlineExceeded
		}
	}
}

// Close implements net.Conn.
func (c *memConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.local)
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr { return memAddr{} }

func (c *memConn) SetDeadline(t time.Time) error {
	if closed(c.local) || closed(c.remote) {
		return io.ErrClosedPipe
	}
	c.rd.set(t)
	c.wd.set(t)
	return nil
}

func (c *memConn) SetReadDeadline(t time.Time) error {
	if closed(c.local) || closed(c.remote) {
		return io.ErrClosedPipe
	}
	c.rd.set(t)
	return nil
}

func (c *memConn) SetWriteDeadline(t time.Time) error {
	if closed(c.local) || closed(c.remote) {
		return io.ErrClosedPipe
	}
	c.wd.set(t)
	return nil
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// deadline is a settable point in time whose expiry closes a channel.
type deadline struct {
	mu     *sync.Mutex
	timer  *time.Timer
	expire chan struct{}
}

func newDeadline() deadline {
	return deadline{mu: new(sync.Mutex), expire: make(chan struct{})}
}

// set arms the deadline at t; the zero time disarms it. A deadline that
// has fired is re-armed by setting a future time.
func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.expire // the timer fired: wait until its callback closed expire
	}
	d.timer = nil
	fired := closed(d.expire)
	if t.IsZero() {
		if fired {
			d.expire = make(chan struct{})
		}
		return
	}
	if dur := time.Until(t); dur > 0 {
		if fired {
			d.expire = make(chan struct{})
		}
		ch := d.expire
		d.timer = time.AfterFunc(dur, func() { close(ch) })
		return
	}
	if !fired {
		close(d.expire)
	}
}

// wait returns a channel closed once the deadline has passed.
func (d *deadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.expire
}
