package rtd

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/fpn/flagproxy/internal/frame"
)

func TestFrameRoundTrip(t *testing.T) {
	line, err := EncodeFrame(Round{Window: 3, Round: 1, Fired: []int{2, 7, 11}})
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("encoded frame is not newline-terminated")
	}
	rec, err := frame.Decode(frameVersion, bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	var rr Round
	if err := json.Unmarshal(rec, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Window != 3 || rr.Round != 1 || len(rr.Fired) != 3 || rr.Fired[2] != 11 {
		t.Fatalf("round-trip mismatch: %+v", rr)
	}
}

func TestFrameCRCCatchesCorruption(t *testing.T) {
	line, err := EncodeFrame(Header{Stream: StreamName, Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the rec payload (after the "rec": key).
	i := bytes.Index(line, []byte(StreamName))
	if i < 0 {
		t.Fatal("payload not found in frame")
	}
	bad := append([]byte(nil), line...)
	bad[i] ^= 0x01
	if _, err := frame.Decode(frameVersion, bytes.TrimSuffix(bad, []byte("\n"))); err == nil || !strings.Contains(err.Error(), "CRC32-C mismatch") {
		t.Fatalf("corrupted frame not rejected: %v", err)
	}
}

// A healthy frame of another schema generation — here a checkpoint
// ledger line — is refused on the syndrome wire.
func TestFrameVersionGate(t *testing.T) {
	line, err := frame.Encode(frameVersion+1, Round{})
	if err != nil {
		t.Fatal(err)
	}
	body := JoinFrames([][]byte{line})
	if _, err := decodeResponse(body); err == nil || !strings.Contains(err.Error(), "unsupported frame version") {
		t.Fatalf("foreign version not rejected: %v", err)
	}
}

func TestProbeTrailerDiscrimination(t *testing.T) {
	if _, ok := frame.End(json.RawMessage(`{"w":0,"r":0}`)); ok {
		t.Fatal("round record mistaken for a trailer")
	}
	line, err := EncodeFrame(Trailer{End: 0, Drained: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeResponse(line)
	if err != nil || !out.Drained || len(out.Results) != 0 {
		t.Fatalf("drained trailer not recognized: %+v err=%v", out, err)
	}
}

// Every strict prefix of a healthy request body and of a healthy
// response body must fail the readers that validate them: the shared
// strict stream reader (with the request's count rule — the header is
// not a counted record) and the client's decodeResponse.
func TestEveryStrictPrefixFailsValidation(t *testing.T) {
	frames, err := EncodeWindows("fp", [][][]int{{{0}, {1, 2}}, {{}, {2}}})
	if err != nil {
		t.Fatal(err)
	}
	request := func(data []byte) error {
		records := 0
		_, err := frame.ReadStream(frameVersion, data, func(json.RawMessage) (bool, error) {
			records++
			return records > 1, nil
		})
		return err
	}
	var resp bytes.Buffer
	for _, v := range []any{
		Result{Window: 0, Status: StatusOK, Decoder: "flagged-mwpm", Flips: []int{1}},
		Result{Window: 1, Status: StatusShed},
		Fatal{Err: "rtd: hung client"},
		Trailer{End: 2},
	} {
		line, err := EncodeFrame(v)
		if err != nil {
			t.Fatal(err)
		}
		resp.Write(line)
	}
	response := func(data []byte) error {
		_, err := decodeResponse(data)
		return err
	}
	for _, c := range []struct {
		name     string
		body     []byte
		validate func([]byte) error
	}{
		{"request", JoinFrames(frames), request},
		{"response", resp.Bytes(), response},
	} {
		if err := c.validate(c.body); err != nil {
			t.Fatalf("healthy %s rejected: %v", c.name, err)
		}
		for cut := 0; cut < len(c.body); cut++ {
			if err := c.validate(c.body[:cut]); err == nil {
				t.Fatalf("strict %s prefix of %d/%d bytes passed validation", c.name, cut, len(c.body))
			}
		}
	}
}
