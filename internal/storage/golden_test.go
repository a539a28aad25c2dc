package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"shufflejoin/internal/workload"
)

// TestWriteArrayGolden pins the exact bytes WriteArray produces for a
// geo-shaped array with multi-digit chunk keys over the 4,050 lon/lat
// chunks. The digest was taken with the original fmt-based key encoder;
// chunk keys are persisted verbatim, so a change to their encoding or to
// the chunk order shows up here as a different digest.
func TestWriteArrayGolden(t *testing.T) {
	const want = "9bb7a288ae66ee7afd8b8ca6486d936326aa235a80176921cc0adbf9923d55cf"
	a := workload.AISLike("AIS", workload.GeoConfig{Cells: 3000, Seed: 9})
	var buf bytes.Buffer
	if err := WriteArray(&buf, a); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("WriteArray digest = %s, want %s", got, want)
	}
}
