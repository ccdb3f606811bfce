package main

import (
	"bytes"
	"errors"
)

// Scanners for the daemon's JSON answers. They read only the fields the
// checker needs and decode into caller-owned slices, so the JSON reader
// stays allocation-free like the binary one.

var (
	errJSON       = errors.New("unexpected JSON answer")
	keyConnected  = []byte(`"connected":[`)
	keyRoutes     = []byte(`"routes":[`)
	keyGeneration = []byte(`"generation":`)
	keyConfidence = []byte(`"confidence":"approx"`)
	keyReachable  = []byte(`{"reachable":`)
	keyPath       = []byte(`"path":[`)
	litTrue       = []byte("true")
	litFalse      = []byte("false")
)

// after returns the index just past key in b, or -1.
func after(b, key []byte) int {
	i := bytes.Index(b, key)
	if i < 0 {
		return -1
	}
	return i + len(key)
}

// jsonUint reads the unsigned integer that follows key.
func jsonUint(b, key []byte) (uint64, error) {
	i := after(b, key)
	if i < 0 {
		return 0, errJSON
	}
	var n uint64
	j := i
	for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
		n = n*10 + uint64(b[j]-'0')
	}
	if j == i {
		return 0, errJSON
	}
	return n, nil
}

// readBool reads true or false at b[i:], returning the value and the index
// after it.
func readBool(b []byte, i int) (bool, int, error) {
	switch {
	case bytes.HasPrefix(b[i:], litTrue):
		return true, i + len(litTrue), nil
	case bytes.HasPrefix(b[i:], litFalse):
		return false, i + len(litFalse), nil
	}
	return false, i, errJSON
}

// scanConnected decodes a /connected or /vconnected answer.
func scanConnected(b []byte, out []bool) (got []bool, gen uint64, approx bool, err error) {
	i := after(b, keyConnected)
	if i < 0 {
		return out, 0, false, errJSON
	}
	out = out[:0]
	for i < len(b) && b[i] != ']' {
		var v bool
		if v, i, err = readBool(b, i); err != nil {
			return out, 0, false, err
		}
		out = append(out, v)
		if i < len(b) && b[i] == ',' {
			i++
		}
	}
	gen, err = jsonUint(b, keyGeneration)
	return out, gen, bytes.Contains(b, keyConfidence), err
}

// routeLegs is a decoded /route answer: per pair, reachability and the
// path as a span of the flat vertex slice.
type routeLegs struct {
	reach []bool
	start []int
	flat  []int
}

func (r *routeLegs) path(i int) []int {
	end := len(r.flat)
	if i+1 < len(r.start) {
		end = r.start[i+1]
	}
	return r.flat[r.start[i]:end]
}

// scanRoutes decodes a /route answer into r, reusing its slices.
func scanRoutes(b []byte, r *routeLegs) (gen uint64, approx bool, err error) {
	i := after(b, keyRoutes)
	if i < 0 {
		return 0, false, errJSON
	}
	r.reach, r.start, r.flat = r.reach[:0], r.start[:0], r.flat[:0]
	for i < len(b) && b[i] != ']' {
		if !bytes.HasPrefix(b[i:], keyReachable) {
			return 0, false, errJSON
		}
		var ok bool
		if ok, i, err = readBool(b, i+len(keyReachable)); err != nil {
			return 0, false, err
		}
		r.reach = append(r.reach, ok)
		r.start = append(r.start, len(r.flat))
		if i < len(b) && b[i] == ',' && bytes.HasPrefix(b[i+1:], keyPath) {
			i += 1 + len(keyPath)
			for i < len(b) && b[i] != ']' {
				n, j := 0, i
				for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
					n = n*10 + int(b[j]-'0')
				}
				if j == i {
					return 0, false, errJSON
				}
				r.flat = append(r.flat, n)
				i = j
				if i < len(b) && b[i] == ',' {
					i++
				}
			}
			i++ // ']'
		}
		if i >= len(b) || b[i] != '}' {
			return 0, false, errJSON
		}
		i++
		if i < len(b) && b[i] == ',' {
			i++
		}
	}
	gen, err = jsonUint(b, keyGeneration)
	return gen, bytes.Contains(b, keyConfidence), err
}
