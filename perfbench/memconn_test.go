package main

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// pipeMaker returns two connected ends; both net.Pipe and newMemPipe are
// checked against the same expectations.
type pipeMaker func() (net.Conn, net.Conn)

func pipes() map[string]pipeMaker {
	return map[string]pipeMaker{
		"net.Pipe": net.Pipe,
		"memConn": func() (net.Conn, net.Conn) {
			a, b := newMemPipe()
			return a, b
		},
	}
}

// fill makes the next write from a to b block: net.Pipe blocks until a
// reader arrives; a memConn blocks once its buffer is full.
func fill(t *testing.T, a net.Conn) {
	t.Helper()
	if mc, ok := a.(*memConn); ok {
		if _, err := mc.Write(make([]byte, queueLimit)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMemConnMatchesNetPipe(t *testing.T) {
	past := time.Now().Add(-time.Second)
	cases := []struct {
		name string
		run  func(t *testing.T, a, b net.Conn) error
		want error
	}{
		{"read past deadline", func(t *testing.T, a, b net.Conn) error {
			_ = a.SetReadDeadline(past)
			_, err := a.Read(make([]byte, 1))
			return err
		}, os.ErrDeadlineExceeded},
		{"write past deadline", func(t *testing.T, a, b net.Conn) error {
			_ = a.SetWriteDeadline(past)
			_, err := a.Write([]byte("x"))
			return err
		}, os.ErrDeadlineExceeded},
		{"blocked read times out", func(t *testing.T, a, b net.Conn) error {
			_ = a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			_, err := a.Read(make([]byte, 1))
			return err
		}, os.ErrDeadlineExceeded},
		{"blocked write times out", func(t *testing.T, a, b net.Conn) error {
			fill(t, a)
			_ = a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
			_, err := a.Write([]byte("x"))
			return err
		}, os.ErrDeadlineExceeded},
		{"read after local close", func(t *testing.T, a, b net.Conn) error {
			a.Close()
			_, err := a.Read(make([]byte, 1))
			return err
		}, io.ErrClosedPipe},
		{"write after local close", func(t *testing.T, a, b net.Conn) error {
			a.Close()
			_, err := a.Write([]byte("x"))
			return err
		}, io.ErrClosedPipe},
		{"read after remote close", func(t *testing.T, a, b net.Conn) error {
			b.Close()
			_, err := a.Read(make([]byte, 1))
			return err
		}, io.EOF},
		{"write after remote close", func(t *testing.T, a, b net.Conn) error {
			b.Close()
			_, err := a.Write([]byte("x"))
			return err
		}, io.ErrClosedPipe},
		{"blocked read ends on remote close", func(t *testing.T, a, b net.Conn) error {
			time.AfterFunc(20*time.Millisecond, func() { b.Close() })
			_, err := a.Read(make([]byte, 1))
			return err
		}, io.EOF},
		{"blocked read ends on local close", func(t *testing.T, a, b net.Conn) error {
			time.AfterFunc(20*time.Millisecond, func() { a.Close() })
			_, err := a.Read(make([]byte, 1))
			return err
		}, io.ErrClosedPipe},
		{"cleared deadline lets a read wait for data", func(t *testing.T, a, b net.Conn) error {
			_ = a.SetReadDeadline(past)
			_ = a.SetReadDeadline(time.Time{})
			go func() {
				time.Sleep(20 * time.Millisecond)
				_, _ = b.Write([]byte("x"))
			}()
			_, err := a.Read(make([]byte, 1))
			return err
		}, nil},
	}
	for pname, mk := range pipes() {
		for _, c := range cases {
			t.Run(pname+"/"+c.name, func(t *testing.T) {
				a, b := mk()
				defer a.Close()
				defer b.Close()
				err := c.run(t, a, b)
				if !errors.Is(err, c.want) {
					t.Fatalf("got %v, want %v", err, c.want)
				}
				var ne net.Error
				if c.want == os.ErrDeadlineExceeded && !(errors.As(err, &ne) && ne.Timeout()) {
					t.Fatalf("%v is not a net.Error timeout", err)
				}
			})
		}
	}
}

func TestMemConnBuffersWholeWritesInOrder(t *testing.T) {
	a, b := newMemPipe()
	defer a.Close()
	defer b.Close()
	var chunks []chunk
	b.rx.onChunk = func(c chunk, _ int64) { chunks = append(chunks, c) }
	for _, s := range []string{"ab", "cde", "f"} {
		if n, err := a.Write([]byte(s)); err != nil || n != len(s) {
			t.Fatalf("write %q: %d, %v", s, n, err)
		}
	}
	buf := make([]byte, 4)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "abcd" {
		t.Fatalf("first read %q, %v", buf[:n], err)
	}
	if len(chunks) != 1 || chunks[0].end != 2 {
		t.Fatalf("after the first read: chunks %+v, want only the first write consumed", chunks)
	}
	a.Close()
	n, err = b.Read(buf)
	if err != nil || string(buf[:n]) != "ef" {
		t.Fatalf("second read %q, %v", buf[:n], err)
	}
	if len(chunks) != 3 || chunks[1].end != 5 || chunks[2].end != 6 {
		t.Fatalf("chunks %+v, want all three writes consumed in order", chunks)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("read after drained remote close: %v, want EOF", err)
	}
}

func TestMemConnCompactsAPartlyReadBuffer(t *testing.T) {
	a, b := newMemPipe()
	defer a.Close()
	defer b.Close()
	msg := make([]byte, 100)
	buf := make([]byte, 100)
	// Keep one byte unread while tens of queueLimits pass through.
	if _, err := a.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50*queueLimit/len(msg); i++ {
		msg[0] = byte(i)
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		if n, err := io.ReadFull(b, buf); err != nil || n != len(buf) {
			t.Fatalf("read %d: %d, %v", i, n, err)
		}
		if buf[1] != byte(i) {
			t.Fatalf("read %d: bytes out of order", i)
		}
	}
	if c := cap(b.rx.buf); c > 4*queueLimit {
		t.Fatalf("buffer grew to %d bytes", c)
	}
}
