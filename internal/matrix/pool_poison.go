//go:build poisonpool

package matrix

func init() { poison = true }
