"""Known-good FL004 (source scope): a reactor-safe frame source; the
serving function outside the class may block."""

import time


class RelayServer:
    def delta_payload(self, table, cursor):
        return self.store[table][cursor], cursor + 1


def run_relay():
    time.sleep(0.05)
