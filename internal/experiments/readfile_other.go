//go:build !unix

package experiments

import "os"

// readArtifact reads the file at path. Outside unix it is
// os.ReadFile and leaves buf unused.
func readArtifact(path string, buf []byte) ([]byte, error) {
	return os.ReadFile(path)
}
