// Package frame is the one CRC32-C-framed JSONL codec behind every
// ledger and wire stream: the checkpoint store, the latency log, the
// fabric's completion streams and the rtd syndrome streams. A line is
// one {"v","crc","rec"} envelope — the caller's schema version, CRC32-C
// over the exact rec bytes, and the rec payload — ending in a newline.
// The encoding is canonical: Decode accepts exactly the bytes Encode
// writes, so an accepted line always re-encodes to itself.
//
// A record carrying an "end" key is a counted trailer (see End). Two
// readers classify damage:
//
//   - ReadStream is strict, for wire streams whose every strict prefix
//     must fail: every line ends in a newline, is non-empty and at most
//     MaxLine bytes, a trailer counting the preceding records must be
//     present, and nothing may follow it.
//   - ReadLog is for ledgers written by appends or atomic rewrites: a
//     final newline-less fragment that fails to decode is a torn tail,
//     dropped and reported; one that decodes is kept, because a
//     CRC-verified record is never thrown away. Any other damage is a
//     *LineError naming its 1-based line.
package frame

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
)

// MaxLine bounds one stream line in bytes, newline excluded.
const MaxLine = 1 << 20

// Castagnoli is the CRC32-C table every frame is checksummed with.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envelope is the JSON shape of one line.
type envelope struct {
	V   int             `json:"v"`
	CRC uint32          `json:"crc"` // CRC32-C over the raw Rec bytes
	Rec json.RawMessage `json:"rec"`
}

// VersionError reports a well-formed line of another schema version.
type VersionError struct{ Got, Want int }

func (e *VersionError) Error() string {
	return fmt.Sprintf("unsupported frame version %d (want v%d)", e.Got, e.Want)
}

// LineError locates damage on one line of a stream or log.
type LineError struct {
	Line int // 1-based
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }
func (e *LineError) Unwrap() error { return e.Err }

// Encode marshals payload and returns it framed at version as one
// newline-terminated line.
func Encode(version int, payload any) ([]byte, error) {
	rec, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	line := appendHead(nil, version, crc32.Checksum(rec, Castagnoli))
	line = append(line, rec...)
	return append(line, "}\n"...), nil
}

// Write encodes payload at version and writes the line to w.
func Write(w io.Writer, version int, payload any) error {
	line, err := Encode(version, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(line)
	return err
}

// appendHead appends the envelope up to the rec value: exactly what
// json.Marshal writes for an envelope, whose rec bytes (already
// compact, as json.Marshal output) it copies verbatim.
func appendHead(dst []byte, version int, crc uint32) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	dst = append(dst, `,"crc":`...)
	dst = strconv.AppendUint(dst, uint64(crc), 10)
	return append(dst, `,"rec":`...)
}

// Decode checks one line (newline excluded) — JSON shape, version,
// CRC32-C, canonical encoding — and returns its raw rec bytes.
func Decode(version int, line []byte) (json.RawMessage, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("bad frame: %v", err)
	}
	if env.V != version {
		return nil, &VersionError{Got: env.V, Want: version}
	}
	if got := crc32.Checksum(env.Rec, Castagnoli); got != env.CRC {
		return nil, fmt.Errorf("CRC32-C mismatch: stored %08x, computed %08x", env.CRC, got)
	}
	var buf [64]byte
	head := appendHead(buf[:0], env.V, env.CRC)
	if len(line) != len(head)+len(env.Rec)+1 || !bytes.HasPrefix(line, head) || !canonicalRec(env.Rec) {
		return nil, errors.New("frame is not canonically encoded")
	}
	return env.Rec, nil
}

// canonicalRec reports whether rec, valid JSON, is byte-for-byte what
// json.Marshal emits for it: no whitespace outside strings, and no '<',
// '>', '&', U+2028 or U+2029 left unescaped.
func canonicalRec(rec []byte) bool {
	if bytes.ContainsAny(rec, "<>&\u2028\u2029") {
		return false
	}
	inStr, esc := false, false
	for _, c := range rec {
		switch {
		case esc:
			esc = false
		case inStr:
			esc = c == '\\'
			inStr = c != '"'
		case c == '"':
			inStr = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			return false
		}
	}
	return true
}

// End reports whether rec is a counted trailer — a record carrying an
// "end" key — and the count it claims.
func End(rec json.RawMessage) (int, bool) {
	var probe struct {
		End *int `json:"end"`
	}
	if json.Unmarshal(rec, &probe) != nil || probe.End == nil {
		return 0, false
	}
	return *probe.End, true
}

// nextLine splits the first line off data, reporting whether it ended
// in a newline.
func nextLine(data []byte) (line, rest []byte, terminated bool) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i], data[i+1:], true
	}
	return data, nil, false
}

// ReadStream validates one complete strict stream at version. Each
// record before the trailer goes to fn in order; fn reports whether it
// counts toward the trailer's "end". The trailer's rec is returned so a
// caller can read fields beyond "end". Records handed to fn before an
// error were fully verified, so a caller may salvage them.
func ReadStream(version int, data []byte, fn func(rec json.RawMessage) (counted bool, err error)) (json.RawMessage, error) {
	counted := 0
	for n := 1; len(data) > 0; n++ {
		line, rest, terminated := nextLine(data)
		data = rest
		switch {
		case !terminated:
			return nil, fmt.Errorf("torn stream: line %d has no terminating newline", n)
		case len(line) == 0:
			return nil, &LineError{n, errors.New("empty")}
		case len(line) > MaxLine:
			return nil, &LineError{n, fmt.Errorf("longer than %d bytes", MaxLine)}
		}
		rec, err := Decode(version, line)
		if err != nil {
			return nil, &LineError{n, err}
		}
		if end, ok := End(rec); ok {
			if end != counted {
				return nil, &LineError{n, fmt.Errorf("trailer claims %d records, stream carried %d", end, counted)}
			}
			if len(data) > 0 {
				return nil, &LineError{n + 1, errors.New("data after the trailer")}
			}
			return rec, nil
		}
		ok, err := fn(rec)
		if err != nil {
			return nil, &LineError{n, err}
		}
		if ok {
			counted++
		}
	}
	return nil, fmt.Errorf("torn stream: no trailer after %d records", counted)
}

// ReadLog decodes a ledger at version, handing each record to fn in
// file order. A final newline-less fragment that does not decode is a
// torn tail: dropped, and reported as torn. Any other damage, and any
// fn error, is a *LineError.
func ReadLog(version int, data []byte, fn func(rec json.RawMessage) error) (torn bool, err error) {
	for n := 1; len(data) > 0; n++ {
		line, rest, terminated := nextLine(data)
		data = rest
		if len(line) == 0 {
			return false, &LineError{n, errors.New("empty line inside the record stream")}
		}
		rec, err := Decode(version, line)
		if err != nil {
			if !terminated {
				return true, nil
			}
			return false, &LineError{n, err}
		}
		if err := fn(rec); err != nil {
			return false, &LineError{n, err}
		}
	}
	return false, nil
}
