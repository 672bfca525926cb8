"""Known-bad FL004 (source scope): a frame source blocks the pump.

RelayServer's methods are called by FanoutEngine on the reactor path,
so its class body is reactor code.  The socket-serving function below
also sleeps (waiting out a handshake) but is NOT in scope.
"""

import time


class RelayServer:
    def delta_payload(self, table, cursor):
        time.sleep(0.05)
        return self.sock.recv(4096), cursor + 1


def run_relay():
    time.sleep(0.05)
