"""Layer 2, descriptor side: the descriptor name space and open objects.

Three interrelated classes, exactly as in the paper:

* :class:`DescriptorSet` — operations that affect the *set* of
  descriptors (open slots, dup, pipe, close) plus the routing state:
  one descriptor table per client process, copied on fork.
* :class:`Descriptor` — one active descriptor: a name (the fd number)
  for a reference-counted open object.
* :class:`OpenObject` — the object a descriptor references.  Shared by
  descriptors created through ``dup``/``fork``; reclaimed on last close.
  Default operations make the same call on the next-level interface.

:class:`DescSymbolicSyscall` is the toolkit-supplied symbolic layer
derivative that maps descriptor-using system calls onto these objects.
"""

from repro.kernel.errno import EBADF, SyscallError
from repro.kernel.ofile import F_DUPFD
from repro.toolkit.symbolic import SymbolicSyscall


class OpenObject:
    """A reference-counted open object (paper: ``open_object``).

    Operations receive the descriptor number they were invoked through,
    because several descriptors — possibly in several processes — may
    name this one object.
    """

    def __init__(self, dset, kind="file"):
        self.dset = dset
        self.kind = kind
        self.refcount = 0

    # -- reference management ------------------------------------------

    def incref(self):
        """Add a reference (a descriptor now names this object)."""
        self.refcount += 1
        return self

    def decref(self):
        """Drop a reference; the last one triggers :meth:`last_close`."""
        assert self.refcount > 0
        self.refcount -= 1
        if self.refcount == 0:
            self.last_close()

    def last_close(self):
        """The final descriptor naming this object was closed."""

    # -- operations (defaults take the normal action) ----------------------

    def read(self, fd, count):
        """Read *count* bytes through descriptor *fd*; default takes the normal action."""
        return self.dset.syscall_down("read", fd, count)

    def write(self, fd, data):
        """Write *data* through descriptor *fd*; default takes the normal action."""
        return self.dset.syscall_down("write", fd, data)

    def readv(self, fd, counts):
        """Scatter read, built on :meth:`read` so derived objects that
        change read behaviour cover the vector forms automatically."""
        buffers = []
        for count in counts:
            data = self.read(fd, count)
            buffers.append(data)
            if len(data) < count:
                break
        return buffers

    def writev(self, fd, buffers):
        """Gather write, built on :meth:`write` (see :meth:`readv`)."""
        return sum(self.write(fd, buffer) for buffer in buffers)

    def lseek(self, fd, offset, whence):
        """Reposition the shared offset; default takes the normal action."""
        return self.dset.syscall_down("lseek", fd, offset, whence)

    def fstat(self, fd):
        """Return the object's ``struct stat``; default takes the normal action."""
        return self.dset.syscall_down("fstat", fd)

    def fsync(self, fd):
        """Flush the object to stable storage; default takes the normal action."""
        return self.dset.syscall_down("fsync", fd)

    def ftruncate(self, fd, length):
        """Set the object's length; default takes the normal action."""
        return self.dset.syscall_down("ftruncate", fd, length)

    def fchmod(self, fd, mode):
        """Change the object's mode; default takes the normal action."""
        return self.dset.syscall_down("fchmod", fd, mode)

    def fchown(self, fd, uid, gid):
        """Change the object's ownership; default takes the normal action."""
        return self.dset.syscall_down("fchown", fd, uid, gid)

    def ioctl(self, fd, request, arg):
        """Device control on the object; default takes the normal action."""
        return self.dset.syscall_down("ioctl", fd, request, arg)

    def getdirentries(self, fd, count):
        """Read directory entries; default takes the normal action."""
        return self.dset.syscall_down("getdirentries", fd, count)

    def close_slot(self, fd):
        """Release the underlying kernel descriptor slot for *fd*."""
        return self.dset.syscall_down("close", fd)


class Descriptor:
    """One active descriptor (paper: ``descriptor``)."""

    __slots__ = ("fd", "open_object")

    # repro-lint: disable=F002 -- the constructor *takes ownership*: this
    # reference is released by DescriptorSet.drop/release_process.
    def __init__(self, fd, open_object):
        self.fd = fd
        self.open_object = open_object.incref()

    # Delegation: a descriptor's operations act on its open object.

    def read(self, count):
        """Read through this descriptor's open object."""
        return self.open_object.read(self.fd, count)

    def write(self, data):
        """Write through this descriptor's open object."""
        return self.open_object.write(self.fd, data)

    def readv(self, counts):
        """Scatter read through this descriptor's open object."""
        return self.open_object.readv(self.fd, counts)

    def writev(self, buffers):
        """Gather write through this descriptor's open object."""
        return self.open_object.writev(self.fd, buffers)

    def lseek(self, offset, whence):
        """Seek through this descriptor's open object."""
        return self.open_object.lseek(self.fd, offset, whence)

    def fstat(self):
        """Stat through this descriptor's open object."""
        return self.open_object.fstat(self.fd)

    def fsync(self):
        """Sync through this descriptor's open object."""
        return self.open_object.fsync(self.fd)

    def ftruncate(self, length):
        """Truncate through this descriptor's open object."""
        return self.open_object.ftruncate(self.fd, length)

    def fchmod(self, mode):
        """Chmod through this descriptor's open object."""
        return self.open_object.fchmod(self.fd, mode)

    def fchown(self, uid, gid):
        """Chown through this descriptor's open object."""
        return self.open_object.fchown(self.fd, uid, gid)

    def ioctl(self, request, arg):
        """Ioctl through this descriptor's open object."""
        return self.open_object.ioctl(self.fd, request, arg)

    def getdirentries(self, count):
        """List entries through this descriptor's open object."""
        return self.open_object.getdirentries(self.fd, count)


class DescriptorSet:
    """The descriptor name space (paper: ``descriptor_set``).

    Keeps one ``{fd: Descriptor}`` table per client process.  Descriptors
    the agent never saw opened (stdin/stdout/stderr inherited from the
    loader, say) materialise on first use with default open objects, so
    partial knowledge is never fatal.
    """

    OPEN_OBJECT_CLASS = OpenObject

    def __init__(self):
        self.sym = None
        self._tables = {}

    def bind(self, sym):
        """Attach to the symbolic router that feeds this set."""
        self.sym = sym

    # -- downcall plumbing (via the router's boilerplate) ------------------

    def syscall_down(self, name, *args):
        """Make a call on the next-level interface via the router."""
        return self.sym.syscall_down(name, *args)

    @property
    def ctx(self):
        return self.sym.ctx

    # -- table management ---------------------------------------------------

    def table(self):
        """The current process's ``{fd: Descriptor}`` table."""
        pid = self.ctx.proc.pid
        table = self._tables.get(pid)
        if table is None:
            table = {}
            self._tables[pid] = table
        return table

    def lookup(self, fd):
        """The Descriptor for *fd*, materialising a default if unseen."""
        table = self.table()
        desc = table.get(fd)
        if desc is None:
            desc = Descriptor(fd, self.OPEN_OBJECT_CLASS(self))
            table[fd] = desc
        return desc

    # repro-lint: disable=F002 -- releases only the *replaced* entry's
    # reference; the new reference is taken by Descriptor.__init__.
    def install(self, fd, open_object):
        """Bind *fd* to *open_object*, dropping any stale entry."""
        table = self.table()
        old = table.pop(fd, None)
        if old is not None:
            old.open_object.decref()
        desc = Descriptor(fd, open_object)
        table[fd] = desc
        return desc

    # repro-lint: disable=F002 -- the release point pairing
    # Descriptor.__init__'s incref (descriptor forgotten).
    def drop(self, fd):
        """Forget *fd*, releasing its open-object reference."""
        old = self.table().pop(fd, None)
        if old is not None:
            old.open_object.decref()

    def fork_child_table(self, parent_pid, child_pid):
        """Duplicate the parent's table for a new child (shared objects)."""
        parent = self._tables.get(parent_pid, {})
        self._tables[child_pid] = {
            fd: Descriptor(fd, desc.open_object) for fd, desc in parent.items()
        }

    # repro-lint: disable=F002 -- exit-time bulk release pairing each
    # Descriptor.__init__ incref the dead process still held.
    def release_process(self, pid):
        """Release every descriptor a process held (at its exit)."""
        table = self._tables.pop(pid, None)
        if table:
            for desc in table.values():
                desc.open_object.decref()

    # -- set-level system calls -----------------------------------------------

    def dup(self, fd):
        """dup(): a new descriptor naming the same open object."""
        desc = self.lookup(fd)
        newfd = self.syscall_down("dup", fd)
        self.install(newfd, desc.open_object)
        return newfd

    def dup2(self, fd, newfd):
        """dup2(): bind *newfd* to *fd*'s open object."""
        desc = self.lookup(fd)
        result = self.syscall_down("dup2", fd, newfd)
        if newfd != fd:
            self.install(newfd, desc.open_object)
        return result

    def fcntl(self, fd, cmd, arg=0):
        """fcntl(): descriptor control; F_DUPFD shares the object."""
        desc = self.lookup(fd)
        result = self.syscall_down("fcntl", fd, cmd, arg)
        if cmd == F_DUPFD:
            self.install(result, desc.open_object)
        return result

    def close(self, fd):
        """close(): release the slot and its object reference."""
        desc = self.table().get(fd)
        if desc is None:
            # Unseen descriptor: take the normal action only.
            return self.syscall_down("close", fd)
        result = desc.open_object.close_slot(fd)
        self.drop(fd)
        return result

    def pipe(self):
        """pipe(): two fresh descriptors with pipe open objects."""
        rfd, wfd = self.syscall_down("pipe")
        self.install(rfd, self.OPEN_OBJECT_CLASS(self, kind="pipe"))
        self.install(wfd, self.OPEN_OBJECT_CLASS(self, kind="pipe"))
        return (rfd, wfd)


class DescSymbolicSyscall(SymbolicSyscall):
    """Routes descriptor-using system calls through the descriptor layer.

    The 48-call descriptor subset of the interface is mapped onto
    :class:`Descriptor`/:class:`OpenObject` methods; everything else
    inherits the plain symbolic behaviour.
    """

    OBS_LAYER = "descriptor"

    DESCRIPTOR_SET_CLASS = DescriptorSet

    def __init__(self, dset=None):
        super().__init__()
        self.dset = dset if dset is not None else self.DESCRIPTOR_SET_CLASS()
        self.dset.bind(self)

    # fork/exit bookkeeping so per-process tables track reality

    def init_child(self):
        """Copy the parent's descriptor table for a new child."""
        super().init_child()
        ppid = self.syscall_down("getppid")
        pid = self.syscall_down("getpid")
        self.dset.fork_child_table(ppid, pid)

    def sys_exit(self, status=0):
        """Release the exiting process's table, then exit."""
        self.dset.release_process(self.syscall_down("getpid"))
        return super().sys_exit(status)

    def exec_close_descriptor(self, fd):
        """Exec teardown: drop table state along with the slot."""
        self.dset.drop(fd)
        return self.syscall_down("close", fd)

    # descriptor-using calls

    def sys_read(self, fd, count):
        return self.dset.lookup(fd).read(count)

    def sys_write(self, fd, data):
        return self.dset.lookup(fd).write(data)

    def sys_readv(self, fd, counts):
        return self.dset.lookup(fd).readv(counts)

    def sys_writev(self, fd, buffers):
        return self.dset.lookup(fd).writev(buffers)

    def sys_lseek(self, fd, offset, whence):
        return self.dset.lookup(fd).lseek(offset, whence)

    def sys_fstat(self, fd):
        return self.dset.lookup(fd).fstat()

    def sys_fsync(self, fd):
        return self.dset.lookup(fd).fsync()

    def sys_ftruncate(self, fd, length):
        return self.dset.lookup(fd).ftruncate(length)

    def sys_fchmod(self, fd, mode):
        return self.dset.lookup(fd).fchmod(mode)

    def sys_fchown(self, fd, uid, gid):
        return self.dset.lookup(fd).fchown(uid, gid)

    def sys_ioctl(self, fd, request, arg=None):
        return self.dset.lookup(fd).ioctl(request, arg)

    def sys_getdirentries(self, fd, count):
        return self.dset.lookup(fd).getdirentries(count)

    def sys_close(self, fd):
        return self.dset.close(fd)

    def sys_dup(self, fd):
        return self.dset.dup(fd)

    def sys_dup2(self, fd, newfd):
        return self.dset.dup2(fd, newfd)

    def sys_fcntl(self, fd, cmd, arg=0):
        return self.dset.fcntl(fd, cmd, arg)

    def sys_pipe(self):
        return self.dset.pipe()
