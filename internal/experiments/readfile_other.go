//go:build !unix

package experiments

import "os"

// readArtifact reads the file at prefix+name. Outside unix it is
// os.ReadFile and leaves buf unused.
func readArtifact(prefix string, name, buf []byte) ([]byte, error) {
	return os.ReadFile(prefix + string(name))
}
