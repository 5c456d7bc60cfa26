"""The package's one fork protocol: a parent and the worker it forks, which
``train``, ``train_supervised``'s validation and ``evaluate``'s scoring use,
and its one gate, ``_may_fork``. A worker's error comes back with its type,
text and attributes, and no worker outlives the call that made it.
"""

from __future__ import annotations

import mmap
import multiprocessing
import pickle
from typing import Callable

import numpy as np

from .errors import WorkerError


def _may_fork() -> bool:
    """Whether a call may fork a worker: the ``fork`` start method exists,
    this process is not a daemonic worker, which may not have children, and
    no worker of this process runs, so that a call made beside one, such as
    ``train``'s validation, stays in this process."""
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and _Worker.running == 0
    )


class _Exchange:
    """What a parent and its forked worker share, made before the fork by a
    call that ``_may_fork`` lets fork; the worker gets this alone, so that no
    cycle holds the parent's process object.

    One float64 array per keyword, of that shape (a size for a vector), all
    in one anonymous shared mapping, and two one-way pipes for the rest.
    Every receive blocks. Every message is one write below ``PIPE_BUF``: a
    few numbers, and in the reply of ``train``'s worker also the epoch's
    metrics row (about 200 bytes pickled). The one exception is a worker's
    error, the pickled exception, which may be longer; the worker sends it
    as its last message, and the parent reads it at its next receive.
    ``train``'s exchange also holds two epochs of strong views, which the
    parent writes one epoch ahead into slot ``epoch % 2`` (see
    ``_run_forked``).
    """

    def __init__(self, **shapes: int | tuple[int, ...]):
        sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes.values())), dtype=np.float64)
        offset = 0
        for name, shape in shapes.items():
            setattr(self, name, flat[offset : offset + sizes[name]].reshape(shape))
            offset += sizes[name]
        self.to_worker = multiprocessing.Pipe(duplex=False)  # (receiving end, sending end)
        self.to_parent = multiprocessing.Pipe(duplex=False)

    def keep(self, worker: bool) -> None:
        """Close the other side's pipe ends, so that a receive fails once the
        other side is gone."""
        self.to_worker[worker].close()
        self.to_parent[not worker].close()


def _serve(exchange: _Exchange, body: Callable, args: tuple) -> None:
    """A forked worker's life: ``body(exchange, inbox, outbox, *args)``
    answers the parent's messages until the parent closes its end. An error
    that it raises is sent instead, pickled, so that the parent raises the
    same exception; one that pickle cannot rebuild is sent as its type name
    and text."""
    exchange.keep(worker=True)
    outbox = exchange.to_parent[1]
    try:
        body(exchange, exchange.to_worker[0], outbox, *args)
    except (EOFError, KeyboardInterrupt):
        pass  # the parent is gone, or was interrupted and ends the run itself
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))  # what the parent's receive does
            reply = ("error", exc)
        except Exception:
            reply = ("unpicklable", f"{type(exc).__name__}: {exc}")
        outbox.send(reply)


class _Worker:
    """The parent's handle on a forked worker that runs ``body`` (see
    ``_serve``); ``role`` names it in ``WorkerError``. As a context manager it
    stops the worker on leaving, killing it first when an exception leaves.
    ``running`` counts this process's workers from start to stop."""

    running = 0

    def __init__(self, role: str, exchange: _Exchange, body: Callable, args: tuple):
        self.role, self.exchange = role, exchange
        self.process = multiprocessing.get_context("fork").Process(
            target=_serve, args=(exchange, body, args), name=f"trscore-{role}", daemon=True
        )
        self.process.start()
        _Worker.running += 1
        exchange.keep(worker=False)

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, kind, exc, traceback) -> bool:
        self.stop(kill=kind is not None)
        return False

    def send(self, message) -> None:
        try:
            self.exchange.to_worker[1].send(message)
        except BrokenPipeError:
            pass  # the worker is gone: ``reply`` says so

    def reply(self) -> tuple:
        """What the worker's "done" reply carries; its error, or
        ``WorkerError`` when it ended without a reply, is raised here."""
        try:
            reply = self.exchange.to_parent[0].recv()
        except EOFError:
            reply = ("lost",)
        if reply[0] != "done":
            raise self.error(reply)
        return reply[1:]

    def error(self, reply: tuple) -> Exception:
        """The error a reply other than "done" stands for: the one the worker
        raised, or ``WorkerError`` when it ended without a reply or raised
        an error that pickle cannot rebuild."""
        if reply[0] == "error":
            return reply[1]
        if reply[0] == "unpicklable":
            return WorkerError(f"the {self.role} worker raised {reply[1]}")
        self.process.join()
        return WorkerError(
            f"the {self.role} worker ended with exit code {self.process.exitcode} "
            "before it replied"
        )

    def stop(self, kill: bool) -> None:
        """End the worker (at once with ``kill``), and wait for it."""
        if kill:
            self.process.kill()
        for end in (self.exchange.to_worker[1], self.exchange.to_parent[0]):
            end.close()
        self.process.join()
        self.process.close()
        _Worker.running -= 1
