// Completion-stream framing. A worker posts a shard's per-block
// logical-error counts as internal/frame lines at version 1, one per
// block, then the counted trailer. The reader is frame.ReadStream, so a
// connection cut at any byte is a detectable torn stream rather than a
// silently short shard; on top of it the block indexes must be exactly
// the leased range in order.
package fabric

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/fpn/flagproxy/internal/frame"
)

// frameVersion is the completion-stream schema generation.
const frameVersion = 1

// countRec is one block's result: absolute block index and its
// logical-error count.
type countRec struct {
	Block int `json:"b"`
	Errs  int `json:"e"`
}

// countTrailer ends a healthy stream; End is the number of count lines
// that preceded it.
type countTrailer struct {
	End int `json:"end"`
}

// writeCounts streams the counts of blocks [first, first+len(counts))
// to w, one frame per block plus the trailer.
func writeCounts(w io.Writer, first int, counts []int) error {
	bw := bufio.NewWriter(w)
	for i, e := range counts {
		if err := frame.Write(bw, frameVersion, countRec{Block: first + i, Errs: e}); err != nil {
			return err
		}
	}
	if err := frame.Write(bw, frameVersion, countTrailer{End: len(counts)}); err != nil {
		return err
	}
	return bw.Flush()
}

// readCounts parses and fully validates one completion stream for the
// leased range [first, first+n). Any deviation — bad JSON, CRC
// mismatch, wrong block order, short or over-long stream, missing or
// wrong trailer — is an error; nothing partial is ever returned, so a
// torn TCP stream can never merge a half shard.
func readCounts(data []byte, first, n int) ([]int, error) {
	counts := make([]int, 0, n)
	_, err := frame.ReadStream(frameVersion, data, func(raw json.RawMessage) (bool, error) {
		var rec countRec
		if err := json.Unmarshal(raw, &rec); err != nil {
			return false, fmt.Errorf("bad record: %v", err)
		}
		if rec.Block != first+len(counts) {
			return false, fmt.Errorf("block %d out of order (want %d)", rec.Block, first+len(counts))
		}
		if len(counts) == n {
			return false, fmt.Errorf("stream carries more than the leased %d blocks", n)
		}
		if rec.Errs < 0 || rec.Errs > blockShotsMax {
			return false, fmt.Errorf("impossible error count %d", rec.Errs)
		}
		counts = append(counts, rec.Errs)
		return true, nil
	})
	if err != nil {
		return nil, fmt.Errorf("fabric: completion stream: %w", err)
	}
	if len(counts) != n {
		return nil, fmt.Errorf("fabric: stream carried %d blocks, lease covers %d", len(counts), n)
	}
	return counts, nil
}

// blockShotsMax is the largest possible per-block error count (one
// 64-shot sampling word).
const blockShotsMax = 64

// countsDigest fingerprints a shard's counts so a duplicate completion
// can be verified idempotent (same digest → "ok") or exposed as a
// conflict (different digest → first completion wins, the liar is
// reported).
func countsDigest(counts []int) uint32 {
	var buf [8]byte
	h := crc32.New(frame.Castagnoli)
	for _, e := range counts {
		binary.LittleEndian.PutUint64(buf[:], uint64(e))
		_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
	}
	return h.Sum32()
}
