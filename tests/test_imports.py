"""What importing the package loads, each case in a fresh interpreter."""

import json

from conftest import run_child


def test_config_loads_no_numpy_and_no_other_module():
    loaded = json.loads(run_child(
        "import json, sys\n"
        "import wvdnet.config\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "                        if name.partition('.')[0] in ('numpy', 'wvdnet'))))\n"
    ))
    assert loaded == ["wvdnet", "wvdnet.config", "wvdnet.errors"]


def test_every_module_adds_only_numpy_from_site_packages():
    # the packages that `python -c pass` already holds (those that .pth
    # files import) count in the baseline
    added, every = json.loads(run_child(
        "import importlib, json, os, pkgutil, site, sys\n"
        "roots = [os.path.realpath(p) + os.sep\n"
        "         for p in site.getsitepackages() + [site.getusersitepackages()]]\n"
        "def installed():\n"
        "    found = set()\n"
        "    for name, module in list(sys.modules.items()):\n"
        "        path = getattr(module, '__file__', None)\n"
        "        if path and os.path.realpath(path).startswith(tuple(roots)):\n"
        "            found.add(name.partition('.')[0])\n"
        "    return found\n"
        "before = installed()\n"
        "import wvdnet\n"
        "names = [info.name for info in pkgutil.iter_modules(wvdnet.__path__, 'wvdnet.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps([sorted(installed() - before), names]))\n"
    ))
    assert "wvdnet.cli" in every and "wvdnet.neuralnet" in every
    assert added == ["numpy"]
