package pipeline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"shufflejoin/internal/array"
	"shufflejoin/internal/pipeline"
)

// digest hashes everything a query computes into one short hex string:
// the output cells in scan order, the join statistics, Matches,
// CellsMoved, ClampedCells, the float bits of the modeled times, skew,
// selectivity and lock wait, the straggler node, PeakBatchBytes, the obs
// trace fingerprint, and the Profile fingerprint when the query was
// profiled. Wall-clock fields are not hashed.
//
// The golden digests in this package were recorded on linux/amd64, the
// CI platform, while the barrier compare path and the materializing
// data plane still existed: each pinned case was first checked to give
// the same digest on those reference paths as on the default path. Go
// may fuse multiply-adds on other architectures (arm64, ppc64le, s390x),
// which can change the low bits of the modeled times, so the pins are
// only enforced on amd64; every run is still cross-checked against its
// siblings everywhere.
func digest(rep *pipeline.Report, traceFP string) string {
	h := sha256.New()
	rep.Output.Scan(func(coords []int64, attrs []array.Value) bool {
		fmt.Fprint(h, "cell", coords)
		for _, a := range attrs {
			fmt.Fprintf(h, " %d:%d:%x:%q", a.Kind, a.Int, math.Float64bits(a.F), a.Str)
		}
		fmt.Fprintln(h)
		return true
	})
	fmt.Fprintf(h, "stats %+v matches %d moved %d clamped %d\n",
		rep.JoinStats, rep.Matches, rep.CellsMoved, rep.ClampedCells)
	writeBits(h, "align", rep.AlignTime)
	writeBits(h, "compare", rep.CompareTime)
	for _, t := range rep.NodeCompareTime {
		writeBits(h, "node", t)
	}
	writeBits(h, "skew", rep.Skew)
	writeBits(h, "selectivity", rep.Selectivity)
	writeBits(h, "lockwait", rep.LockWaitSeconds)
	fmt.Fprintf(h, "straggler %d peak %d\n", rep.StragglerNode, rep.PeakBatchBytes)
	fmt.Fprintf(h, "trace %s\n", traceFP)
	if rep.Profile != nil {
		fmt.Fprintf(h, "profile %s\n", rep.Profile.Fingerprint())
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func writeBits(h hash.Hash, name string, f float64) {
	fmt.Fprintf(h, "%s %x\n", name, math.Float64bits(f))
}

// checkGolden fails the test when got differs from the pinned digest.
// The pins are enforced on amd64 only (see digest).
func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	if got != want {
		t.Errorf("%s: digest %s, pinned %s", name, got, want)
	}
}
