package stock_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/stock"
)

func TestNilness(t *testing.T) {
	linttest.Run(t, "testdata", stock.Nilness, "nilcheck")
}

func TestShadow(t *testing.T) {
	linttest.Run(t, "testdata", stock.Shadow, "shadowed")
}

func TestUnusedwrite(t *testing.T) {
	linttest.Run(t, "testdata", stock.Unusedwrite, "copywrite")
}
