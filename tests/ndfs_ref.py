"""Reference nested DFS over the product of a lasso word and a Büchi automaton.

The product search ``checker._find_accepting_lasso`` used before its
states became integers: product states are (position, automaton state)
tuples, colours live in a dict and the red search's visited states in a
set.  It evaluates guards through the same ``enters`` memo, keyed by
(automaton state, class), so a differential can compare what the two
searches return and which guards they ask for.  The visiting order is
the checker's, so the two must return the very same (prefix, cycle).
"""

from __future__ import annotations

_CYAN, _BLUE = 1, 2


def find_accepting_lasso(succ, classes, ba, valuations, enters):
    """(prefix, cycle) as lists of (position, automaton state), or None."""

    def can_enter(q, node):
        key = (q, classes[node])
        ok = enters.get(key)
        if ok is None:
            ok = enters[key] = ba.guard_holds(q, valuations[key[1]])
        return ok

    def successors(ps):
        node, q = ps
        nxt = succ[node]
        return [(nxt, q2) for q2 in ba.successors[q] if can_enter(q2, nxt)]

    def accepting(ps):
        return ps[1] in ba.accepting

    color = {}
    red = set()

    initial = [(0, q) for q in ba.initial if can_enter(q, 0)]
    for start in initial:
        if color.get(start) == _BLUE:
            continue
        # Blue DFS, iterative; stack frames are (state, successor list, index).
        stack = [[start, successors(start), 0]]
        color[start] = _CYAN

        def stack_states():
            return [frame[0] for frame in stack]

        while stack:
            frame = stack[-1]
            state, succs, idx = frame
            if idx < len(succs):
                frame[2] += 1
                child = succs[idx]
                c = color.get(child)
                if c == _CYAN and (accepting(state) or accepting(child)):
                    # Closing edge straight back into the blue stack.
                    path = stack_states()
                    j = path.index(child)
                    return path[:j], path[j:]
                if c is None:
                    color[child] = _CYAN
                    stack.append([child, successors(child), 0])
                continue
            # Postorder: run the red search from accepting states.
            if accepting(state):
                hit = _red_dfs(state, successors, color, red)
                if hit is not None:
                    red_path, target = hit
                    path = stack_states()
                    j = path.index(target)
                    # Cycle: blue stack from target up to state, then the red
                    # detour back to target (its endpoint, excluded).
                    return path[:j], path[j:] + red_path[1:-1]
            color[state] = _BLUE
            stack.pop()
    return None


def _red_dfs(root, successors, color, red):
    """Depth-first from an accepting state, hunting any state on the blue stack.

    Returns (path, target) where path runs root -> ... -> target and target
    is cyan, or None.  ``red`` persists across calls.
    """
    parent = {root: None}
    stack = [root]
    red.add(root)
    while stack:
        state = stack.pop()
        for child in successors(state):
            if color.get(child) == _CYAN:
                path = [child]
                cur = state
                while cur is not None:
                    path.append(cur)
                    cur = parent[cur]
                path.reverse()  # root ... state child
                return path, child
            if child not in red:
                red.add(child)
                parent[child] = state
                stack.append(child)
    return None
