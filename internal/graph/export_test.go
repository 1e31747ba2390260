package graph

// NewCSRForTest wraps flat CSR arrays in a Graph, cut into chunks as
// ReadBinary cuts them, so the external tests can hold a build to a
// reference CSR they assemble themselves.
func NewCSRForTest(n int, off []int64, adj []NodeID, w []float32) *Graph {
	chunks, err := Chunked(off, adj, w)
	if err != nil {
		panic(err)
	}
	return fromChunks(n, w != nil, chunks)
}
