package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"apisense/internal/core"
	"apisense/internal/transport"
)

// Output checks. Every one compares exact bytes: a release, a report or an
// upload either matches its oracle byte for byte or the op fails.

// errCheck marks a failed output check.
var errCheck = errors.New("output check failed")

// checkBytes fails at the first byte where got differs from want.
func checkBytes(what string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Errorf("%w: %s differs at byte %d (want %d bytes, got %d)", errCheck, what, i, len(want), len(got))
}

// checkUploads compares two upload sequences element by element, so a
// missing, extra, reordered or altered upload fails with its position.
func checkUploads(want, got [][]byte) error {
	for i := 0; i < len(want) && i < len(got); i++ {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("%w: upload %d differs", errCheck, i)
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("%w: %d uploads, want %d", errCheck, len(got), len(want))
	}
	return nil
}

func encodeUploads(ups []transport.Upload) ([][]byte, error) {
	out := make([][]byte, len(ups))
	for i := range ups {
		b, err := json.Marshal(&ups[i])
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// renderReport renders a sharded selection report with every field and
// every float in its shortest exact form (the report holds no pointers).
func renderReport(sel *core.ShardedSelection) []byte {
	if sel == nil {
		return nil
	}
	return fmt.Appendf(nil, "%+v", *sel)
}

// chosenPerShard renders each shard's key and chosen strategy, the part of
// the report a warm publication must share with a cold one: adaptive
// pruning may replace a losing strategy's scorecard by its proxies.
func chosenPerShard(sel *core.ShardedSelection) []byte {
	if sel == nil {
		return nil
	}
	var buf bytes.Buffer
	for _, sh := range sel.Shards {
		fmt.Fprintf(&buf, "%s\t%s\n", sh.Key, sh.Chosen)
	}
	return buf.Bytes()
}
