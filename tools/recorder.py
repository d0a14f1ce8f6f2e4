"""The one seam through which the tools and the tests watch the kernel.

``ramdea`` is imported only when a function here is called, so a tool
that puts another checkout's ``src`` first on ``sys.path`` records it."""

import contextlib
import importlib
import inspect

STAGES = ("dea", "grs", "rts")


def recorded(stage: str, solve_many, on_call):
    """``solve_many``, one stage's binding, calling ``on_call(stage, stack,
    bases, outcomes)`` after each call, ``bases`` bound as by
    ``lp.solve_many``'s signature.  The stage reads ``outcomes`` as
    ``on_call`` leaves it, so a test may replace entries to inject a fault."""
    from ramdea import lp

    signature = inspect.signature(lp.solve_many)

    def wrapper(stack, *args, **kwargs):
        outcomes = solve_many(stack, *args, **kwargs)
        on_call(stage, stack, signature.bind(stack, *args, **kwargs).arguments.get("bases"),
                outcomes)
        return outcomes

    return wrapper


@contextlib.contextmanager
def recording(on_call=None):
    """Install ``recorded(stage, ..., on_call)`` on every stage, and count
    the kernel's lockstep stacks, while the block runs.

    Yields ``{stage: [[LPs, rounds, one-LP rounds], ...]}``, one entry per
    stack, for the stage whose ``solve_many`` runs it; a stack run outside
    every stage counts for none.  A one-LP round, one whose stack holds one
    LP, is the tail in which a stack waits on its slowest LP.  On exit,
    even by an exception, every binding is restored."""
    from ramdea import lp

    modules = {stage: importlib.import_module(f"ramdea.{stage}") for stage in STAGES}
    originals = {stage: module.solve_many for stage, module in modules.items()}
    run, round_ = lp._SimplexState.run, lp._SimplexState._round
    stacks = {stage: [] for stage in STAGES}
    running = []  # the stages whose solve_many runs, innermost last
    current = [[0, 0, 0]]  # the entry of the stack that runs

    def staged(stage, solve_many):
        def wrapper(*args, **kwargs):
            running.append(stage)
            try:
                return solve_many(*args, **kwargs)
            finally:
                running.pop()
        return wrapper

    def counted_run(state):
        current[0] = [state.ids.size, 0, 0]
        if running:
            stacks[running[-1]].append(current[0])
        return run(state)

    def counted_round(state):
        current[0][1] += 1
        current[0][2] += int(state.ids.size == 1)
        return round_(state)

    try:
        for stage, module in modules.items():
            module.solve_many = staged(stage, recorded(stage, originals[stage],
                                                       on_call or (lambda *call: None)))
        lp._SimplexState.run, lp._SimplexState._round = counted_run, counted_round
        yield stacks
    finally:
        for stage, module in modules.items():
            module.solve_many = originals[stage]
        lp._SimplexState.run, lp._SimplexState._round = run, round_
