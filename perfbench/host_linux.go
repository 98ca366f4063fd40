package main

import (
	"fmt"
	"os/exec"
	"syscall"
)

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x2FC12FC1:
		return "zfs"
	case 0x01021997:
		return "9p"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// dieWithParent makes a child process receive SIGKILL if the benchmark
// exits without stopping it, so no server outlives a crashed run.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
