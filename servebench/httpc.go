package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// rawHTTP is a minimal HTTP/1.1 client over one persistent connection. It
// sends pre-encoded JSON bodies and reads each response into a reused
// buffer, so a steady stream of requests allocates nothing, unlike
// net/http's client, whose garbage would show up as load-generator GC in
// the daemon's numbers on a 2-CPU host.
type rawHTTP struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	head []byte
	body []byte
}

func dialHTTP(addr string) (*rawHTTP, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawHTTP{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *rawHTTP) Close() error { return h.c.Close() }

// post sends body to path and returns the status code and the response
// body, which aliases an internal buffer valid until the next call.
func (h *rawHTTP) post(path string, body []byte) (int, []byte, error) {
	h.head = append(h.head[:0], "POST "...)
	h.head = append(h.head, path...)
	h.head = append(h.head, " HTTP/1.1\r\nHost: "...)
	h.head = append(h.head, h.addr...)
	h.head = append(h.head, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	h.head = strconv.AppendInt(h.head, int64(len(body)), 10)
	h.head = append(h.head, "\r\n\r\n"...)
	h.head = append(h.head, body...)
	if _, err := h.c.Write(h.head); err != nil {
		return 0, nil, err
	}
	return h.readResponse()
}

var errBadResponse = errors.New("malformed HTTP response")

func (h *rawHTTP) readResponse() (int, []byte, error) {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, errBadResponse
	}
	status, err := atoi(line[9:12])
	if err != nil {
		return 0, nil, errBadResponse
	}
	length, chunked := -1, false
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, nil, errBadResponse
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = atoi(v); err != nil {
				return 0, nil, errBadResponse
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		for {
			line, err := h.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := hexToInt(bytes.TrimRight(line, "\r\n"))
			if err != nil {
				return 0, nil, err
			}
			if n == 0 {
				if _, err := h.br.Discard(2); err != nil {
					return 0, nil, err
				}
				return status, h.body, nil
			}
			if err := h.readBody(n); err != nil {
				return 0, nil, err
			}
			if _, err := h.br.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		return status, h.body, h.readBody(length)
	default:
		return 0, nil, fmt.Errorf("%w: no length", errBadResponse)
	}
}

func (h *rawHTTP) readBody(n int) error {
	off := len(h.body)
	if cap(h.body)-off < n {
		h.body = append(h.body[:off], make([]byte, n)...)
	} else {
		h.body = h.body[:off+n]
	}
	_, err := io.ReadFull(h.br, h.body[off:off+n])
	return err
}

// atoi parses a non-negative decimal without allocating.
func atoi(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errBadResponse
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errBadResponse
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// hexToInt parses a chunk-size line (hex digits, optional extensions).
func hexToInt(b []byte) (int, error) {
	if i := bytes.IndexByte(b, ';'); i >= 0 {
		b = b[:i]
	}
	if len(b) == 0 || len(b) > 7 {
		return 0, errBadResponse
	}
	n := 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			n = n<<4 | int(c-'0')
		case c >= 'a' && c <= 'f':
			n = n<<4 | int(c-'a'+10)
		case c >= 'A' && c <= 'F':
			n = n<<4 | int(c-'A'+10)
		default:
			return 0, errBadResponse
		}
	}
	return n, nil
}
