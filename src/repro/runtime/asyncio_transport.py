"""Live runtime: Rapid over asyncio UDP sockets.

:class:`AsyncioRuntime` implements the same :class:`~repro.runtime.base.Runtime`
interface as the simulator's :class:`~repro.sim.process.SimRuntime`, so the
protocol objects (:class:`~repro.core.membership.RapidNode`, the baselines,
the example apps) run unmodified over real networks.

One UDP socket per node, bound to the node's listen endpoint, is used for
both sending and receiving, so a peer's datagram source address equals its
listen address — the address book the protocol already uses.

Example (see ``examples/real_cluster.py`` for a full script)::

    runtime = AsyncioRuntime(Endpoint("127.0.0.1", 5001))
    await runtime.start()
    node = RapidNode(runtime, seeds=[Endpoint("127.0.0.1", 5001)])
    node.start()
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Any, Callable, Optional

from repro.core.node_id import Endpoint
from repro.runtime.codec import CodecError, decode_bytes, encode_bytes

__all__ = ["AsyncioRuntime", "open_local_socket", "run_local_cluster"]


def open_local_socket(host: str = "127.0.0.1") -> tuple:
    """Bind a non-blocking UDP socket to an OS-assigned (ephemeral) port.

    Returns ``(sock, endpoint)`` where ``endpoint`` carries the actual
    bound port.  Pre-binding before the event loop exists lets callers
    learn every node's address up front (the seed list needs it) and
    avoids fixed-port collisions when tests run concurrently on one CI
    host; hand the socket to :meth:`AsyncioRuntime.start`.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((host, 0))
    sock.setblocking(False)
    # Multiplexing hundreds of nodes on one event loop means a receiver
    # can lag hundreds of datagrams behind a burst (join storms, gossip
    # rounds); ask for a deep receive queue so the kernel buffers the
    # burst instead of dropping it.  The kernel silently caps this at
    # net.core.rmem_max — best effort is exactly what we want.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
    return sock, Endpoint(host, sock.getsockname()[1])


class _TimerHandle:
    """Adapter so ``loop.call_later`` handles satisfy the Runtime protocol."""

    __slots__ = ("_handle",)

    def __init__(self, handle: asyncio.TimerHandle):
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class _Protocol(asyncio.DatagramProtocol):
    def __init__(self, runtime: "AsyncioRuntime") -> None:
        self.runtime = runtime

    def datagram_received(self, data: bytes, addr) -> None:
        self.runtime._datagram_received(data, addr)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        pass  # UDP send errors (e.g. ICMP unreachable) are expected noise


class AsyncioRuntime:
    """Runtime backed by the asyncio event loop and a UDP socket."""

    def __init__(self, addr: Endpoint, seed: Optional[int] = None) -> None:
        self.addr = addr
        self.rng = random.Random(seed)
        #: Subtracted from ``loop.time()`` by :meth:`now`.  Harnesses that
        #: drive many runtimes set one shared epoch so protocol timestamps
        #: (and the :class:`~repro.sim.trace.ViewTrace` they feed) are
        #: small run-relative seconds, directly comparable to sim time.
        self.epoch = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._handler: Optional[Callable[[Endpoint, Any], None]] = None
        self._closed = False
        self.decode_errors = 0

    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind the UDP socket; must be called inside a running loop.

        ``sock`` may be a pre-bound datagram socket (see
        :func:`open_local_socket`), in which case the runtime adopts it
        instead of binding ``addr`` itself.  Re-entrant after
        :meth:`close`: starting again re-binds the address and clears the
        closed flag, which is how a harness "recovers" a live node.
        """
        self._loop = asyncio.get_running_loop()
        if sock is not None:
            self._transport, _ = await self._loop.create_datagram_endpoint(
                lambda: _Protocol(self), sock=sock
            )
        else:
            self._transport, _ = await self._loop.create_datagram_endpoint(
                lambda: _Protocol(self), local_addr=(self.addr.host, self.addr.port)
            )
        self._closed = False

    def close(self) -> None:
        self._closed = True
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    @property
    def crashed(self) -> bool:
        """Whether the transport is closed (a crashed live node)."""
        return self._closed

    # ------------------------------------------------------- runtime protocol

    def now(self) -> float:
        loop = self._loop or asyncio.get_event_loop()
        return loop.time() - self.epoch

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> _TimerHandle:
        loop = self._loop or asyncio.get_event_loop()
        return _TimerHandle(loop.call_later(delay, self._guarded, fn, args))

    def send(self, dst: Endpoint, msg: Any) -> None:
        if self._transport is None or self._closed:
            return
        self._transport.sendto(encode_bytes(msg), (dst.host, dst.port))

    def broadcast(self, dsts, msg: Any) -> None:
        """Unicast ``msg`` to each destination, encoding the payload once."""
        if self._transport is None or self._closed:
            return
        payload = encode_bytes(msg)
        for dst in dsts:
            self._transport.sendto(payload, (dst.host, dst.port))

    def attach(self, handler: Callable[[Endpoint, Any], None]) -> None:
        self._handler = handler

    # --------------------------------------------------------------- internal

    def _guarded(self, fn: Callable[..., None], args: tuple) -> None:
        if not self._closed:
            fn(*args)

    def _datagram_received(self, data: bytes, addr) -> None:
        if self._handler is None or self._closed:
            return
        try:
            msg = decode_bytes(data)
        except CodecError:
            self.decode_errors += 1
            return
        self._handler(Endpoint(host=addr[0], port=addr[1]), msg)


async def run_local_cluster(
    n: int,
    base_port: Optional[int] = None,
    settings=None,
    host: str = "127.0.0.1",
    converge_timeout: float = 30.0,
):
    """Boot an ``n``-node Rapid cluster on localhost UDP ports.

    With ``base_port=None`` (the default) each node binds an OS-assigned
    ephemeral port, so concurrent runs on one host never collide; pass an
    explicit base to get the predictable ``base_port + i`` layout.

    Returns ``(nodes, runtimes)`` once every node reports ``n`` members, or
    raises ``TimeoutError`` — every runtime is closed before the raise, so
    a failed run leaks no sockets.  Used by the live integration tests and
    the ``examples/real_cluster.py`` script.
    """
    from repro.core.events import NodeStatus
    from repro.core.membership import RapidNode
    from repro.core.settings import RapidSettings

    settings = settings or RapidSettings(
        probe_interval=0.2,
        probe_timeout=0.2,
        batching_window=0.05,
        join_timeout=1.0,
        consensus_fallback_timeout=2.0,
        gossip_interval=0.05,
    )
    runtimes = []
    nodes = []
    try:
        for i in range(n):
            if base_port is None:
                sock, ep = open_local_socket(host)
                runtime = AsyncioRuntime(ep, seed=i)
                await runtime.start(sock=sock)
            else:
                runtime = AsyncioRuntime(Endpoint(host, base_port + i), seed=i)
                await runtime.start()
            runtimes.append(runtime)
        seed_ep = runtimes[0].addr
        for runtime in runtimes:
            nodes.append(RapidNode(runtime, settings, seeds=(seed_ep,)))
        nodes[0].start()
        await asyncio.sleep(0.2)
        for node in nodes[1:]:
            node.start()
        deadline = asyncio.get_running_loop().time() + converge_timeout
        while asyncio.get_running_loop().time() < deadline:
            if all(
                node.status == NodeStatus.ACTIVE and node.size == n for node in nodes
            ):
                return nodes, runtimes
            await asyncio.sleep(0.1)
    except BaseException:
        for runtime in runtimes:
            runtime.close()
        raise
    for runtime in runtimes:
        runtime.close()
    raise TimeoutError(f"cluster did not converge to {n} nodes")
