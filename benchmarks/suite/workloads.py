"""The suite's four workloads: inputs from a seed, one client run, an oracle.

Each workload has the same six steps:

* ``inputs(seed)`` — everything the world is set up from, generated
  deterministically from the seed (programs only ever see these files);
* ``boot()`` — a fresh world;
* ``setup(kernel, inputs)`` — lay the inputs down (untimed);
* ``run(kernel, inputs)`` — one complete client run, returning the exit
  statuses it saw and the output the oracle checks (timed);
* ``reference(seed)`` — the expected output, made once per set;
* ``check(kernel, statuses, output, reference)`` — the oracle: an empty
  list when the run was correct, else what went wrong.

References and outputs travel between processes as JSON, so byte
strings are carried as latin-1 text.
"""

from repro.workloads import boot_world
from repro.workloads import format_dissertation as fmt
from repro.workloads import make_programs as mk
from repro.workloads.textgen import Lcg, sentence

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _name(rng, index):
    """A seed-chosen file name of fixed length, unique by *index*.

    Fixed lengths keep the work a run does independent of the seed: the
    seed changes which names and bytes the programs see, not how many.
    """
    letters = "".join(_LETTERS[rng.next() % 26] for _ in range(6))
    return letters + "%02d" % index


def _text(data):
    return data.decode("latin-1")


class Workload:
    """Defaults: the seed is the only input, a plain world, and a
    reference made by the same run on a world with every fast path off."""

    name = None
    #: kept runs per set at least, whatever the run length
    iterations = None

    def inputs(self, seed):
        return {"seed": seed}

    def boot(self):
        return boot_world()

    def reference(self, seed):
        inputs = self.inputs(seed)
        kernel = boot_world(fastpaths="none")
        self.setup(kernel, inputs)
        statuses, output = self.run(kernel, inputs)
        if any(statuses):
            raise RuntimeError("%s reference run failed: %r"
                               % (self.name, statuses))
        return output

    def check(self, kernel, statuses, output, reference):
        problems = self.problems(kernel, output, reference)
        if any(statuses):
            problems.insert(0, "nonzero exit status in %r" % (statuses,))
        return problems

    def problems(self, kernel, output, reference):
        if output != reference:
            return ["output differs from the reference"]
        return []


class Format(Workload):
    """Table 3-2: Scribe formats the dissertation, no agent attached."""

    name = "format"
    iterations = 120

    def setup(self, kernel, inputs):
        fmt.setup(kernel, seed=inputs["seed"])

    def run(self, kernel, inputs):
        status = kernel.run("/usr/bin/scribe",
                            ["scribe", fmt.MANUSCRIPT, fmt.OUTPUT])
        return [status], _text(kernel.read_file(fmt.OUTPUT))


def _run_stacked(kernel, agents, path, argv):
    """Attach *agents* bottom-up, then exec the client through the top
    (the same loader shape as the agent-stack integration tests)."""

    def loader(ctx):
        for agent in agents:
            agent.attach(ctx)
        agents[-1].exec_client(path, argv, {})

    return kernel.run_entry(loader)


class MakeStack(Workload):
    """Table 3-3: make builds 8 programs under union + txn + monitor."""

    name = "make-stack"
    iterations = 150

    def setup(self, kernel, inputs):
        mk.setup(kernel, seed=inputs["seed"])

    def _images(self, kernel):
        return [_text(kernel.read_file("%s/prog%d" % (mk.SRC_DIR, i)))
                for i in range(1, mk.PROGRAM_COUNT + 1)]

    def run(self, kernel, inputs):
        from repro.agents.monitor import MonitorAgent
        from repro.agents.txn import TxnAgent
        from repro.agents.union_dirs import UnionAgent

        union = UnionAgent()
        union.pset.add_union(mk.SRC_DIR, [mk.SRC_DIR, "/usr/tmp"])
        agents = [union, TxnAgent(scratch_dir="/tmp/txn.scratch"),
                  MonitorAgent("/tmp/monitor.out")]
        status = _run_stacked(kernel, agents, "/bin/sh",
                              ["sh", "-c", "cd %s; make" % mk.SRC_DIR])
        return [status], self._images(kernel)

    def reference(self, seed):
        """The same build with no agent, on a world with fast paths off."""
        kernel = boot_world(fastpaths="none")
        self.setup(kernel, self.inputs(seed))
        status = mk.run(kernel)
        if status:
            raise RuntimeError("make reference run failed: %r" % status)
        return self._images(kernel)


#: tree-scan shape: 4 x 4 x 10 leaf directories of 30 files, three
#: levels deep — 4,800 files, more names than the 4,096-entry name cache
TREE_FANOUT = (4, 4, 10)
FILES_PER_DIR = 30
TREE_ROOT = "/scan"
#: a vocabulary word, so grep matches a seed-dependent but sizeable set
GREP_PATTERN = "kernel"


class TreeScan(Workload):
    """Long-lived ls -l / wc / grep processes over a 4,800-file tree."""

    name = "tree-scan"
    iterations = 100

    def inputs(self, seed):
        rng = Lcg(seed)
        dirs = [TREE_ROOT]
        for fanout in TREE_FANOUT:
            dirs = ["%s/%s" % (parent, _name(rng, index))
                    for parent in dirs for index in range(fanout)]
        files = {}
        for directory in dirs:
            for index in range(FILES_PER_DIR):
                body = "".join(sentence(rng) + "\n" for _ in range(4))
                files["%s/%s" % (directory, _name(rng, index))] = body
        return {"dirs": dirs, "files": files}

    def setup(self, kernel, inputs):
        for directory in inputs["dirs"]:
            kernel.mkdir_p(directory)
        for path, body in inputs["files"].items():
            kernel.write_file(path, body)

    @staticmethod
    def _commands(inputs):
        paths = list(inputs["files"])
        quarter = len(paths) // 4
        half = len(paths) // 2
        wc = [["wc"] + paths[i * quarter:(i + 1) * quarter] for i in range(4)]
        grep = [["grep", GREP_PATTERN] + paths[i * half:(i + 1) * half]
                for i in range(2)]
        return [["ls", "-l"] + inputs["dirs"]], wc, grep

    def run(self, kernel, inputs):
        ls, wc, grep = self._commands(inputs)
        statuses = []
        output = {}
        for kind, commands in (("ls", ls), ("wc", wc), ("grep", grep)):
            chunks = []
            for argv in commands:
                statuses.append(kernel.run("/bin/" + argv[0], argv))
                chunks.append(_text(kernel.console.take_output()))
            output[kind] = chunks
        return statuses, output

    def reference(self, seed):
        """Computed on the host from the generated content, not by a run."""
        inputs = self.inputs(seed)
        files = inputs["files"]
        _, wc, grep = self._commands(inputs)
        expected_wc = []
        for argv in wc:
            lines = []
            total = [0, 0, 0]
            for path in argv[1:]:
                body = files[path]
                counts = (body.count("\n"), len(body.split()),
                          len(body.encode()))
                total = [t + c for t, c in zip(total, counts)]
                lines.append("%8d%8d%8d %s\n" % (counts + (path,)))
            lines.append("%8d%8d%8d total\n" % tuple(total))
            expected_wc.append("".join(lines))
        expected_grep = []
        for argv in grep:
            expected_grep.append("".join(
                "%s:%s\n" % (path, line)
                for path in argv[2:]
                for line in files[path].splitlines()
                if GREP_PATTERN in line))
        return {"wc": expected_wc, "grep": expected_grep}

    def problems(self, kernel, output, reference):
        problems = []
        if output["wc"] != reference["wc"]:
            problems.append("wc counts differ from the host's counts")
        if output["grep"] != reference["grep"]:
            problems.append("grep matches differ from the host's matches")
        return problems


CHURN_DIRS = 40
CHURN_FILES = 40
#: directories emptied and removed before the final listing
CHURN_REMOVED_DIRS = 10
CHURN_SCRIPT = "/home/mbj/churn.sh"


class ChurnObserved(Workload):
    """Metadata churn over 1,600 files, journaled, with metrics on.

    The reference run has neither journal nor observer, so the check
    also shows that both stay invisible to the programs.
    """

    name = "churn-observed"
    iterations = 150

    def inputs(self, seed):
        rng = Lcg(seed)
        dirs = ["/w/" + _name(rng, i) for i in range(CHURN_DIRS)]
        files = [[d + "/" + _name(rng, j) for j in range(CHURN_FILES)]
                 for d in dirs]
        lines = ["mkdir /w " + " ".join(dirs)]
        for names in files:
            lines.append("touch " + " ".join(names))
        for directory, names in zip(dirs, files):
            lines.append("echo %s > %s/note" % (_name(rng, 0), directory))
            lines.append("ln %s %s/link" % (names[0], directory))
            lines.append("mv %s %s/moved" % (names[1], directory))
        lines.append("ls -l " + " ".join(dirs))
        for names in files:
            lines.append("rm " + " ".join(names[2::2]))
        for directory, names in zip(dirs[:CHURN_REMOVED_DIRS],
                                    files[:CHURN_REMOVED_DIRS]):
            lines.append("rm %s %s/note %s/link %s/moved" % (
                " ".join(names[:1] + names[3::2]), directory, directory,
                directory))
        lines.append("rmdir " + " ".join(dirs[:CHURN_REMOVED_DIRS]))
        lines.append("ls -l /w " + " ".join(dirs[CHURN_REMOVED_DIRS:]))
        return {"script": "\n".join(lines) + "\n"}

    def boot(self):
        return boot_world(journal=True, obs="metrics")

    def setup(self, kernel, inputs):
        kernel.write_file(CHURN_SCRIPT, inputs["script"])

    def run(self, kernel, inputs):
        status = kernel.run("/bin/sh", ["sh", CHURN_SCRIPT])
        return [status], _text(kernel.console.take_output())

    def problems(self, kernel, output, reference):
        from repro.workloads.chaos import check_invariants

        return check_invariants(kernel) + super().problems(
            kernel, output, reference)


#: name -> workload, in the order a full set runs them
WORKLOADS = {w.name: w for w in (Format(), MakeStack(), TreeScan(),
                                 ChurnObserved())}
