package udplink

const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
