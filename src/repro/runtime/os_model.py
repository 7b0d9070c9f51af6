"""A miniature operating-system model behind the security-sensitive externals.

The paper's attack consequences are judged against OS state: a root shell
means ``execve`` ran with effective uid 0 (the Linux uselib escalation), an
HTML integrity violation means log bytes landed in another user's file
(Apache bug 25520), an authentication bypass means a privileged operation ran
without the check.  :class:`OSWorld` tracks exactly that state so exploit
drivers and the dynamic vulnerability verifier can evaluate attack
predicates on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class FileObject:
    """An open file: descriptor content accumulates on write."""

    def __init__(self, path: str, descriptor: int):
        self.path = path
        self.descriptor = descriptor
        self.content = bytearray()

    def copy(self) -> "FileObject":
        twin = FileObject(self.path, self.descriptor)
        twin.content = bytearray(self.content)
        return twin

    def __repr__(self) -> str:
        return "<File fd=%d %s (%d bytes)>" % (
            self.descriptor, self.path, len(self.content),
        )


class ExecRecord:
    """One process-forking operation (execve / system / eval / fork)."""

    def __init__(self, kind: str, command: str, uid: int, euid: int, step: int):
        self.kind = kind
        self.command = command
        self.uid = uid
        self.euid = euid
        self.step = step

    @property
    def as_root(self) -> bool:
        return self.euid == 0

    def __repr__(self) -> str:
        return "<Exec %s %r uid=%d euid=%d>" % (
            self.kind, self.command, self.uid, self.euid,
        )


class PrivilegeRecord:
    """One privilege-changing operation (setuid / commit_creds / ...)."""

    def __init__(self, kind: str, target: int, step: int):
        self.kind = kind
        self.target = target
        self.step = step

    def __repr__(self) -> str:
        return "<Priv %s -> %d>" % (self.kind, self.target)


class OSWorld:
    """Process-visible OS state: credentials, files, fork/exec history."""

    def __init__(self, uid: int = 1000, euid: int = 1000):
        self.uid = uid
        self.euid = euid
        self.files_by_path: Dict[str, FileObject] = {}
        self.files_by_fd: Dict[int, FileObject] = {}
        self._next_fd = 3
        self.exec_log: List[ExecRecord] = []
        self.privilege_log: List[PrivilegeRecord] = []
        self.file_access_log: List[Tuple[str, str, int]] = []  # (op, path, step)
        self.stdout = bytearray()
        self.exit_code: Optional[int] = None
        self.process_killed = False

    def copy(self) -> "OSWorld":
        """A copy for a forked VM: its own files (contents included), logs
        and output; the log records are never edited, so they are shared."""
        world = type(self).__new__(type(self))
        world.__dict__.update(self.__dict__)
        files = {id(file): file.copy()
                 for file in (*self.files_by_path.values(),
                              *self.files_by_fd.values())}
        world.files_by_path = {path: files[id(file)]
                               for path, file in self.files_by_path.items()}
        world.files_by_fd = {fd: files[id(file)]
                             for fd, file in self.files_by_fd.items()}
        world.exec_log = list(self.exec_log)
        world.privilege_log = list(self.privilege_log)
        world.file_access_log = list(self.file_access_log)
        world.stdout = bytearray(self.stdout)
        return world

    # ------------------------------------------------------------------
    # credentials

    def set_uid(self, kind: str, target: int, step: int) -> None:
        self.privilege_log.append(PrivilegeRecord(kind, target, step))
        if kind in ("setuid", "commit_creds"):
            self.uid = target
            self.euid = target
        elif kind == "seteuid":
            self.euid = target

    # ------------------------------------------------------------------
    # files

    def open_file(self, path: str, step: int) -> int:
        self.file_access_log.append(("open", path, step))
        existing = self.files_by_path.get(path)
        if existing is not None:
            return existing.descriptor
        file_object = FileObject(path, self._next_fd)
        self._next_fd += 1
        self.files_by_path[path] = file_object
        self.files_by_fd[file_object.descriptor] = file_object
        return file_object.descriptor

    def write_fd(self, descriptor: int, data: bytes, step: int) -> int:
        file_object = self.files_by_fd.get(descriptor)
        if file_object is None:
            return -1
        file_object.content.extend(data)
        self.file_access_log.append(("write", file_object.path, step))
        return len(data)

    def file_content(self, path: str) -> bytes:
        file_object = self.files_by_path.get(path)
        return bytes(file_object.content) if file_object is not None else b""

    # ------------------------------------------------------------------
    # fork/exec

    def record_exec(self, kind: str, command: str, step: int) -> None:
        self.exec_log.append(ExecRecord(kind, command, self.uid, self.euid, step))

    # ------------------------------------------------------------------
    # attack predicates

    def got_root_shell(self) -> bool:
        """Whether any fork/exec ran with effective uid 0."""
        return any(record.as_root for record in self.exec_log)

    def executed(self, command_fragment: str) -> bool:
        return any(command_fragment in record.command for record in self.exec_log)

    def __repr__(self) -> str:
        return "<OSWorld uid=%d euid=%d files=%d execs=%d>" % (
            self.uid, self.euid, len(self.files_by_path), len(self.exec_log),
        )
