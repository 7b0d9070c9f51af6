"""Control-flow analyses over a function's basic blocks.

Provides the graph facts OWL's static components rely on:

- dominators / postdominators (iterative Cooper–Harvey–Kennedy),
- control dependence (postdominance-frontier construction), used by
  Algorithm 1's ``i is control dependent on cbr`` test,
- natural loops (back edges via dominance), loop membership and loop exits,
  used by the adhoc-synchronization detector's "read in a loop" and "branch
  can break out of the loop" tests (paper section 5.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Br, Instruction


class Loop:
    """A natural loop: header block plus member blocks."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock]):
        self.header = header
        self.blocks = blocks

    def contains(self, block: BasicBlock) -> bool:
        return block in self.blocks

    def exit_edges(self) -> List[Tuple[BasicBlock, BasicBlock]]:
        """Edges (src, dst) leaving the loop."""
        edges = []
        for block in self.blocks:
            for successor in block.successors():
                if successor not in self.blocks:
                    edges.append((block, successor))
        return edges

    def __repr__(self) -> str:
        return "<Loop header=%s blocks=%d>" % (self.header.name, len(self.blocks))


class _VirtualRoot:
    """Sentinel standing in for the virtual entry/exit node.

    The iterative dominator algorithm needs a single root; functions have one
    entry but often several ``ret`` blocks, so postdominators are rooted at
    this sentinel, which all exit blocks point to.
    """

    def __repr__(self) -> str:
        return "<virtual-root>"


VIRTUAL_ROOT = _VirtualRoot()


class ControlFlowInfo:
    """All CFG-derived facts for one function, computed eagerly."""

    def __init__(self, function: Function):
        self.function = function
        self.blocks = list(function.blocks)
        self.predecessors: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in self.blocks
        }
        for block in self.blocks:
            for successor in block.successors():
                self.predecessors[successor].append(block)
        self.rpo = self._reverse_postorder()
        self.idom = self._dominators(self.rpo, self._entry_blocks(), self.predecessors)
        exits = [block for block in self.blocks if not block.successors()]
        reverse_preds = {block: block.successors() for block in self.blocks}
        reverse_rpo = list(reversed(self.rpo))
        self.ipdom = self._dominators(reverse_rpo, exits, reverse_preds)
        self.control_deps = self._control_dependence()
        self.loops = self._natural_loops()

    # ------------------------------------------------------------------
    # queries

    @staticmethod
    def _walk_up(tree: Dict, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether ``a`` is an ancestor of ``b`` in a dominator tree."""
        node = b
        while node is not None and node is not VIRTUAL_ROOT:
            if node is a:
                return True
            node = tree.get(node)
        return False

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether block ``a`` dominates block ``b``."""
        return self._walk_up(self.idom, a, b)

    def postdominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return self._walk_up(self.ipdom, a, b)

    def is_control_dependent(self, instruction: Instruction, branch: Instruction) -> bool:
        """Algorithm 1's control-dependence test between two instructions.

        ``instruction`` is control dependent on a conditional ``branch`` when
        its block is in the branch block's control-dependence region, or when
        it appears in the branch's own block *after* the branch (impossible
        for terminators, so that case is moot).
        """
        if not isinstance(branch, Br) or not branch.is_conditional:
            return False
        if instruction.block is None or branch.block is None:
            return False
        if instruction.block.function is not branch.block.function:
            return False
        return instruction.block in self.control_deps.get(branch.block, set())

    def loop_containing(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost (smallest) loop containing ``block``, if any."""
        best: Optional[Loop] = None
        for loop in self.loops:
            if loop.contains(block):
                if best is None or len(loop.blocks) < len(best.blocks):
                    best = loop
        return best

    def branch_exits_loop(self, branch: Instruction, loop: Loop) -> bool:
        """Whether the conditional branch has a successor outside ``loop``."""
        if not isinstance(branch, Br) or not branch.is_conditional:
            return False
        if branch.block not in loop.blocks:
            return False
        return any(successor not in loop.blocks for successor in branch.successors())

    # ------------------------------------------------------------------
    # construction

    def _entry_blocks(self) -> List[BasicBlock]:
        return [self.function.entry] if self.blocks else []

    def _reverse_postorder(self) -> List[BasicBlock]:
        visited: Set[BasicBlock] = set()
        order: List[BasicBlock] = []

        def visit(block: BasicBlock) -> None:
            stack = [(block, iter(block.successors()))]
            visited.add(block)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if successor not in visited:
                        visited.add(successor)
                        stack.append((successor, iter(successor.successors())))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        if self.blocks:
            visit(self.function.entry)
        for block in self.blocks:
            if block not in visited:
                visit(block)
        order.reverse()
        return order

    @staticmethod
    def _dominators(
        order: List[BasicBlock],
        roots: List[BasicBlock],
        predecessors: Dict[BasicBlock, List[BasicBlock]],
    ) -> Dict[BasicBlock, BasicBlock]:
        """Iterative dominator computation (Cooper–Harvey–Kennedy).

        Multiple roots (several ``ret`` blocks when computing postdominators)
        are joined under :data:`VIRTUAL_ROOT`.
        """
        idom: Dict = {VIRTUAL_ROOT: VIRTUAL_ROOT}
        for root in roots:
            idom[root] = VIRTUAL_ROOT
        position = {block: i for i, block in enumerate(order)}
        position[VIRTUAL_ROOT] = -1

        def intersect(a, b):
            while a is not b:
                while position[a] > position[b]:
                    a = idom[a]
                while position[b] > position[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for block in order:
                if block in roots:
                    continue
                candidates = [p for p in predecessors.get(block, []) if p in idom]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = intersect(new_idom, other)
                if idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        return idom

    def _control_dependence(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Map branch-block -> blocks control dependent on it.

        Classic construction: for edge (a, b) where b does not postdominate a,
        walk b up the postdominator tree until reaching ipdom(a); every block
        visited is control dependent on a.
        """
        deps: Dict[BasicBlock, Set[BasicBlock]] = {block: set() for block in self.blocks}
        for a in self.blocks:
            successors = a.successors()
            if len(successors) < 2:
                continue
            stop = self.ipdom.get(a)
            for b in successors:
                runner = b
                seen: Set[BasicBlock] = set()
                while (
                    runner is not None
                    and runner is not stop
                    and runner is not VIRTUAL_ROOT
                    and runner not in seen
                ):
                    seen.add(runner)
                    deps[a].add(runner)
                    runner = self.ipdom.get(runner)
        return deps

    def _natural_loops(self) -> List[Loop]:
        loops_by_header: Dict[BasicBlock, Set[BasicBlock]] = {}
        for block in self.blocks:
            for successor in block.successors():
                if self.dominates(successor, block):
                    body = loops_by_header.setdefault(successor, {successor})
                    self._collect_loop_body(successor, block, body)
        return [Loop(header, blocks) for header, blocks in loops_by_header.items()]

    def _collect_loop_body(
        self, header: BasicBlock, tail: BasicBlock, body: Set[BasicBlock]
    ) -> None:
        stack = [tail]
        while stack:
            block = stack.pop()
            if block in body:
                continue
            body.add(block)
            for predecessor in self.predecessors.get(block, []):
                if predecessor is not header:
                    stack.append(predecessor)


def cfg_for(function: Function) -> ControlFlowInfo:
    """The function's :class:`ControlFlowInfo`, computed once.

    Functions are immutable once their module is under analysis, so the
    memo keeps Algorithm 1's repeated control-dependence queries cheap.
    It is kept on the function itself, so it lives exactly as long as the
    function (and its module) does.
    """
    info = function.cfg_info
    if info is None:
        info = ControlFlowInfo(function)
        function.cfg_info = info
    return info
