"""Run a stage's per-frame tasks on forked worker processes.

Before any fork, ``run`` writes a token for every chunk of tasks into a
pipe, in task order, in one write. The queue fits in ``PIPE_BUF`` bytes,
which a pipe always holds, so that write never blocks: a chunk is one task
while every task's token fits (1,024 tasks at 4,096 bytes), and past that
``chunk_queue`` takes the smallest chunk that fits. No more workers start
than there are chunks. Each child claims chunks from the pipe until it is
empty and runs their tasks in order. Tasks reach the children through fork,
so nothing is pickled on the way in. A stage starts no thread before it
forks, and its tasks make no BLAS call (numpy's BLAS is what may run threads
here).

A child whose task raises runs no further task: it empties the queue, so
that no chunk after its own is started, and sends the pickled (task index,
exception) back on its own pipe. An exception that does not survive
pickling arrives as a ``RuntimeError`` that names it. So every task before
the lowest failing one runs, and ``run`` raises that one's exception; tasks
after it may not run. A child never returns into the caller: it flushes
``sys.stdout`` and ``sys.stderr`` and ends in ``os._exit``. A child that
ends any other way (a signal, say) fails the run with ``ChildProcessError``.
The calling process closes its ends of the pipes, so that every read
reaches EOF, and then reaps every child. An exception raised in it while it
waits (``KeyboardInterrupt``, or ``SystemExit`` from a SIGTERM handler)
kills and reaps the children before it propagates.
"""

from __future__ import annotations

import os
import sys

TOKEN_BYTES = 4  # a chunk's first task index, little-endian


def chunk_queue(n_tasks: int, room: int) -> tuple[int, bytes]:
    """The chunk size and the queue of chunk tokens, in task order: the
    smallest chunk, and never less than one task, whose tokens fit in
    ``room`` bytes."""
    chunksize = max(1, -(-n_tasks // (room // TOKEN_BYTES)))
    tokens = b"".join(start.to_bytes(TOKEN_BYTES, "little") for start in range(0, n_tasks, chunksize))
    return chunksize, tokens


def run(task_fn, tasks: list, workers: int) -> None:
    """Run ``tasks`` on ``workers`` forked children."""
    queue_r, queue_w = os.pipe()
    try:
        chunksize, queue = chunk_queue(len(tasks), os.fpathconf(queue_r, "PC_PIPE_BUF"))
        os.write(queue_w, queue)
    except BaseException:
        os.close(queue_r)
        raise
    finally:
        os.close(queue_w)
    workers = min(workers, len(queue) // TOKEN_BYTES)  # a worker without a chunk would idle
    # else each child would write this process's buffered output once more
    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    pids, report_fds, statuses = [], [], {}
    try:
        for _ in range(workers):
            report_r, report_w = os.pipe()
            report_fds.append(report_r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(task_fn, tasks, chunksize, queue_r, report_w)
            finally:
                os.close(report_w)
            pids.append(pid)
        received = [open(fd, "rb", closefd=False).read() for fd in report_fds]
        for pid in pids:
            statuses[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:
        if os.getpid() != parent:  # interrupted in a child before _work took over
            os._exit(1)
        import signal

        for pid in pids:
            if pid not in statuses:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:  # reaped just before the interrupt
                    pass
        raise
    finally:
        os.close(queue_r)
        for fd in report_fds:
            os.close(fd)
    for pid, code in statuses.items():
        if code:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"worker process {pid} ended with {how}")
    failures = [data for data in received if data]
    if failures:
        import pickle

        raise min((pickle.loads(data) for data in failures), key=lambda failure: failure[0])[1]


def _work(task_fn, tasks: list, chunksize: int, queue_r: int, report_w: int) -> None:
    """The body of a forked child of ``run``; it never returns."""
    code = 1
    try:
        failure = None
        while failure is None and len(token := os.read(queue_r, TOKEN_BYTES)) == TOKEN_BYTES:
            start = int.from_bytes(token, "little")
            for index in range(start, min(start + chunksize, len(tasks))):
                try:
                    task_fn(tasks[index])
                except Exception as exc:
                    failure = index, exc
                    break
        if failure is not None:
            while os.read(queue_r, 65536):  # no chunk after this one is started
                pass
            import pickle

            try:
                report = pickle.dumps(failure)
                pickle.loads(report)
            except Exception:
                index, exc = failure
                report = pickle.dumps((index, RuntimeError(f"{type(exc).__name__}: {exc}")))
            with open(report_w, "wb") as out:
                out.write(report)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
