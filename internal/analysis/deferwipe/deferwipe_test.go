package deferwipe_test

import (
	"testing"

	"kerberos/internal/analysis/analysistest"
	"kerberos/internal/analysis/deferwipe"
)

func TestDeferwipe(t *testing.T) {
	analysistest.Run(t, deferwipe.Analyzer, "testdata/src/a")
}

// TestNotZeroized runs the fixture of key material no zeroizer touches,
// the finding the former keyzero analyzer made.
func TestNotZeroized(t *testing.T) {
	analysistest.Run(t, deferwipe.Analyzer, "testdata/src/b")
}
