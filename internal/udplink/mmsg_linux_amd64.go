package udplink

// The syscall package was frozen before sendmmsg reached linux/amd64,
// so both numbers are spelled out here.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
