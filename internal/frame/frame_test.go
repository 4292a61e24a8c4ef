package frame

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
)

// seeds are payloads of every schema that travels in frames, each at
// the version its owner writes: fabric completion counts (v1), rtd
// request and response records (v1), checkpoint records and meta lines
// and latency-log samples (v2), and both kinds of trailer.
var seeds = []struct {
	version int
	payload string
}{
	{1, `{"b":7,"e":3}`},
	{1, `{"end":3}`},
	{1, `{"stream":"rtd-syndrome","fp":"fp-cafe","id":"stream-9","sw":4}`},
	{1, `{"w":3,"r":1,"f":[2,7,11]}`},
	{1, `{"w":3,"st":"ok","dec":"flagged-mwpm","c":[1,5]}`},
	{1, `{"err":"rtd: torn stream: unexpected EOF"}`},
	{1, `{"end":2,"drained":true}`},
	{2, `{"key":"fp-cafe","blocks":4,"shots":256,"errors":1,"done":true}`},
	{2, `{"meta":{"fabric-epoch":"3","sched":"decode-timeout=2s"}}`},
	{2, `{"w":0,"st":"degraded","dec":"plain-mwpm","ns":99999}`},
}

func encodeSeed(t testing.TB, version int, payload string) []byte {
	t.Helper()
	line, err := Encode(version, json.RawMessage(payload))
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func TestEncodeMatchesJSONMarshal(t *testing.T) {
	for _, s := range seeds {
		line := encodeSeed(t, s.version, s.payload)
		want, err := json.Marshal(envelope{V: s.version, CRC: crc32.Checksum([]byte(s.payload), Castagnoli), Rec: json.RawMessage(s.payload)})
		if err != nil {
			t.Fatal(err)
		}
		if string(line) != string(want)+"\n" {
			t.Errorf("Encode = %q, json.Marshal = %q", line, want)
		}
		rec, err := Decode(s.version, line[:len(line)-1])
		if err != nil || string(rec) != s.payload {
			t.Errorf("Decode(%q) = %q, %v", line, rec, err)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	good := string(encodeSeed(t, 1, `{"b":7,"e":3}`))
	good = good[:len(good)-1]
	for _, c := range []struct{ name, line, want string }{
		{"not-json", "not json", "bad frame"},
		{"version", good, "unsupported frame version 1 (want v2)"},
		{"crc", strings.Replace(good, `"e":3`, `"e":4`, 1), "CRC32-C mismatch"},
		{"space-in-envelope", strings.Replace(good, `"rec":`, `"rec": `, 1), "not canonically encoded"},
		{"trailing-space", good + " ", "not canonically encoded"},
		{"key-case", strings.Replace(good, `"v"`, `"V"`, 1), "not canonically encoded"},
		{"extra-key", strings.TrimSuffix(good, "}") + `,"x":1}`, "not canonically encoded"},
	} {
		version := 1
		if c.name == "version" {
			version = 2
		}
		if _, err := Decode(version, []byte(c.line)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode(%q) = %v, want %q", c.name, c.line, err, c.want)
		}
	}
	// A rec json.Marshal would write differently re-encodes to other
	// bytes, so it is refused even under a matching CRC.
	for _, rec := range []string{`{"b": 7}`, `{"s":"<"}`, "{\"s\":\" \"}"} {
		sum := crc32.Checksum([]byte(rec), Castagnoli)
		line := `{"v":1,"crc":` + strconv.FormatUint(uint64(sum), 10) + `,"rec":` + rec + `}`
		if _, err := Decode(1, []byte(line)); err == nil || !strings.Contains(err.Error(), "not canonically encoded") {
			t.Errorf("non-canonical rec %q: %v", rec, err)
		}
	}
}

// stream builds a healthy strict stream of n counted records.
func stream(t testing.TB, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.Write(encodeSeed(t, 1, `{"b":`+strconv.Itoa(i)+`,"e":0}`))
	}
	b.Write(encodeSeed(t, 1, `{"end":`+strconv.Itoa(n)+`}`))
	return b.Bytes()
}

func readAll(data []byte) (int, error) {
	n := 0
	_, err := ReadStream(1, data, func(json.RawMessage) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

// The prefix property: a healthy stream is accepted and every strict
// prefix of it is rejected, so a connection cut at any byte is seen.
func TestEveryStrictPrefixRejected(t *testing.T) {
	full := stream(t, 3)
	if n, err := readAll(full); err != nil || n != 3 {
		t.Fatalf("healthy stream: %d records, %v", n, err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := readAll(full[:cut]); err == nil {
			t.Fatalf("strict prefix of %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestReadStreamRejects(t *testing.T) {
	full := stream(t, 2)
	trailer := encodeSeed(t, 1, `{"end":1}`)
	first := bytes.SplitAfter(full, []byte("\n"))[0]
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty-line", append(append([]byte{}, first...), '\n'), "line 2: empty"},
		{"after-trailer", append(append([]byte{}, full...), full...), "line 4: data after the trailer"},
		{"miscount", append(append([]byte{}, first...), encodeSeed(t, 1, `{"end":5}`)...), "trailer claims 5 records, stream carried 1"},
		{"no-trailer", first, "no trailer after 1 records"},
		{"overlong", append(bytes.Repeat([]byte("x"), MaxLine+1), '\n'), "longer than"},
		{"ok", append(append([]byte{}, first...), trailer...), ""},
	} {
		_, err := readAll(c.data)
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.name, err, c.want)
		}
	}
	// A caller's verdict stops the stream at its line.
	_, err := ReadStream(1, full, func(json.RawMessage) (bool, error) { return false, errors.New("refused") })
	var le *LineError
	if !errors.As(err, &le) || le.Line != 1 {
		t.Errorf("caller error not located: %v", err)
	}
}

func TestReadLogTornTailRule(t *testing.T) {
	a := encodeSeed(t, 2, `{"w":0,"st":"ok","ns":1}`)
	b := encodeSeed(t, 2, `{"w":1,"st":"ok","ns":2}`)
	count := func(data []byte) (int, bool, error) {
		n := 0
		torn, err := ReadLog(2, data, func(json.RawMessage) error { n++; return nil })
		return n, torn, err
	}
	for _, c := range []struct {
		name string
		data string
		n    int
		torn bool
		line int // 0: no error
	}{
		{"healthy", string(a) + string(b), 2, false, 0},
		{"empty-file", "", 0, false, 0},
		{"torn-fragment", string(a) + string(b[:10]), 1, true, 0},
		{"verified-fragment", string(a) + string(b[:len(b)-1]), 2, false, 0},
		{"mid-file-damage", string(b[:10]) + "\n" + string(a), 0, false, 1},
		{"empty-line", string(a) + "\n" + string(b), 1, false, 2},
	} {
		n, torn, err := count([]byte(c.data))
		var le *LineError
		gotLine := 0
		if errors.As(err, &le) {
			gotLine = le.Line
		} else if err != nil {
			t.Errorf("%s: unlocated error %v", c.name, err)
		}
		if gotLine != c.line || torn != c.torn || (c.line == 0 && n != c.n) {
			t.Errorf("%s: n=%d torn=%v line=%d (%v), want n=%d torn=%v line=%d", c.name, n, torn, gotLine, err, c.n, c.torn, c.line)
		}
	}
}

// FuzzFrame: Decode never panics, an accepted line re-encodes to the
// same bytes, and a single flipped byte is never accepted with
// different rec bytes. The input is tried both as a line and as a rec
// framed under its true CRC, so the fuzzer can reach rec encodings the
// checksum would otherwise hide. Both readers run on the raw input too.
func FuzzFrame(f *testing.F) {
	for _, s := range seeds {
		f.Add(encodeSeed(f, s.version, s.payload), uint16(0), byte(1))
		f.Add([]byte(s.payload), uint16(3), byte(0x40))
	}
	f.Add(stream(f, 2), uint16(5), byte(0x20))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, mask byte) {
		_, _ = ReadStream(1, data, func(json.RawMessage) (bool, error) { return true, nil })
		_, _ = ReadLog(2, data, func(json.RawMessage) error { return nil })
		framed := append(appendHead(nil, 1, crc32.Checksum(data, Castagnoli)), data...)
		for _, line := range [][]byte{bytes.TrimSuffix(data, []byte("\n")), append(framed, '}')} {
			for _, version := range []int{1, 2} {
				rec, err := Decode(version, line)
				if err != nil {
					continue
				}
				again, err := Encode(version, rec)
				if err != nil {
					t.Fatalf("accepted rec %q does not re-encode: %v", rec, err)
				}
				if !bytes.Equal(again, append(append([]byte{}, line...), '\n')) {
					t.Fatalf("accepted %q re-encodes to %q", line, again)
				}
				if mask == 0 {
					continue
				}
				flipped := append([]byte{}, line...)
				flipped[int(pos)%len(flipped)] ^= mask
				if rec2, err := Decode(version, flipped); err == nil && !bytes.Equal(rec2, rec) {
					t.Fatalf("flipped byte accepted with different rec: %q -> %q", rec, rec2)
				}
			}
		}
	})
}
