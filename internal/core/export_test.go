package core

// CutsBlock exposes the Cuts stage's block size to the external test
// package, which sizes its multi-block instances and Submit counts by it.
const CutsBlock = cutsBlock
