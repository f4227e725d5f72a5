package core

// Test files may start goroutines: concurrent clients are what a test
// of shared state is made of.
func okConcurrentClients(clients []func()) {
	for _, c := range clients {
		go c()
	}
}
