package graph

// NewCSRForTest wraps CSR arrays in a Graph as they are, so the external
// tests can hold a build to a reference CSR they assemble themselves.
func NewCSRForTest(n int, off []int64, adj []NodeID, w []float32) *Graph {
	return &Graph{n: n, m: int64(len(adj)), outOff: off, outAdj: adj, outW: w}
}
